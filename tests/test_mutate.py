"""tools/mutate.py on a tiny module: every kind of mutation, each verdict, and a clean tree."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import random
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "mutate.py"

TINY = '''"""A module small enough to mutate whole."""


def clamp(x, low):
    if x < low:
        return low
    return x


def count(n):
    i = 0
    for _ in range(9):
        if i == n:
            return i
        i += 1
    raise ValueError(n)


def wait(ready):
    while not ready:
        pass
    return ready
'''

CHECK = ("import tiny; assert tiny.clamp(1, 2) == 2 and tiny.clamp(3, 2) == 3"
         " and tiny.count(2) == 2 and tiny.wait(True) is True")

# Seconds per mutant: far above an interpreter's start, and paid once, by
# the only mutant that loops forever; count's loop is bounded so that its
# mutants fail fast instead.
TIMEOUT = 2.0

# (source line, change, verdict) of each mutant, in visiting order
EXPECTED = [
    ("def clamp(x, low):", "statement -> pass", "killed"),
    ("if x < low:", "statement -> pass", "killed"),
    ("if x < low:", "`<` -> `<=`", "equivalent"),
    ("return low", "statement -> pass", "killed"),
    ("return x", "statement -> pass", "killed"),
    ("def count(n):", "statement -> pass", "killed"),
    ("i = 0", "statement -> pass", "killed"),
    ("i = 0", "`0` -> `1`", "survived"),
    ("for _ in range(9):", "statement -> pass", "killed"),
    ("for _ in range(9):", "`9` -> `10`", "survived"),
    ("if i == n:", "statement -> pass", "killed"),
    ("if i == n:", "`==` -> `!=`", "killed"),
    ("return i", "statement -> pass", "killed"),
    ("i += 1", "statement -> pass", "killed"),
    ("i += 1", "`+` -> `-`", "killed"),
    ("i += 1", "`1` -> `2`", "survived"),
    ("raise ValueError(n)", "statement -> pass", "survived"),
    ("def wait(ready):", "statement -> pass", "killed"),
    ("while not ready:", "statement -> pass", "survived"),
    ("while not ready:", "`not` dropped", "timeout"),
    ("return ready", "statement -> pass", "killed"),
]


@pytest.fixture(scope="module")
def mutate():
    spec = importlib.util.spec_from_file_location("mutate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "tiny.py").write_text(TINY, encoding="utf-8")
    equivalent = tmp_path / "equivalent.json"
    equivalent.write_text(json.dumps([{"module": "src/tiny.py", "source": "if x < low:",
                                       "change": "`<` -> `<=`", "reason": "equal at x = low"}]))
    return tmp_path


def test_every_mutant_gets_its_verdict_and_the_tree_stays(mutate, tree):
    report = mutate.sweep("src/tiny.py", 100, 0, root=str(tree),
                          command=[sys.executable, "-c", CHECK], timeout=TIMEOUT,
                          equivalent=str(tree / "equivalent.json"))
    assert json.loads(json.dumps(report)) == report
    assert [(m["source"], m["change"], m["verdict"]) for m in report["mutants"]] == EXPECTED
    assert report["points"] == report["sampled"] == len(EXPECTED)
    assert report["counts"] == {"killed": 14, "timeout": 1, "survived": 5, "equivalent": 1}
    assert {m["kind"] for m in report["mutants"]} == {"stmt", "compare", "arith", "bool", "const"}
    assert (tree / "src" / "tiny.py").read_text(encoding="utf-8") == TINY
    assert sorted(p.name for p in tree.iterdir()) == ["equivalent.json", "src"]


def test_a_sample_is_drawn_by_its_seed(mutate, tree):
    report = mutate.sweep("src/tiny.py", 3, 5, root=str(tree), command=[sys.executable, "-c", "0"],
                          timeout=TIMEOUT, equivalent=None)
    assert (report["seed"], report["sampled"]) == (5, 3)
    assert [m["id"] for m in report["mutants"]] == sorted(
        random.Random(5).sample(range(len(EXPECTED)), 3))
    assert [m["verdict"] for m in report["mutants"]] == ["survived"] * 3


def test_a_module_that_fails_unmutated_is_refused(mutate, tree):
    with pytest.raises(SystemExit, match="does not pass"):
        mutate.sweep("src/tiny.py", 1, 0, root=str(tree),
                     command=[sys.executable, "-c", "raise SystemExit(1)"], timeout=TIMEOUT,
                     equivalent=None)
