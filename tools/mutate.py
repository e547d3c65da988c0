"""Mutation testing with the standard library: mutate one module, run the tests.

Usage, from the repository root:

    python tools/mutate.py --module src/shiftlab/experiments.py --sample 40 --seed 37 \\
        [--out mutants.json]

The tool lists every mutation point of ``--module`` with ``ast``, draws
``--sample`` of them with ``random.Random(--seed)`` (all of them if the
sample is larger), and for each writes the mutated module into a temporary
copy of the repository and runs the unit layer there, ``python -m pytest
-x -q -m "not acceptance"``. The working tree is never written. A mutant
whose tests fail is ``killed``, one whose tests pass ``survived``, and one
still running after ten minutes ``timeout``. Mutants listed in
``tools/equivalent.json`` (by module, source and change) are not run and
read ``equivalent``. The unmutated module, rewritten by ``ast.unparse`` as
every mutant is, must pass first. ``sweep`` takes another tree, command,
timeout or list of equivalents.

The five kinds of mutation:

- ``compare``: a comparison flipped (``<`` to ``<=``, ``==`` to ``!=``, ``in``
  to ``not in``, and back);
- ``arith``: ``+`` and ``-`` swapped, and ``*`` and ``/``, also in ``+=`` and its like;
- ``bool``: ``and`` and ``or`` swapped, or a ``not`` dropped;
- ``const``: a numeric constant plus 1;
- ``stmt``: a statement replaced by ``pass`` (docstrings and ``pass`` excepted).

The verdicts go to ``--out`` (or stdout) as JSON: one entry per mutant with
its line, kind, source line, change, verdict and seconds, and the counts.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EQUIVALENT = os.path.join(HERE, "equivalent.json")
COMMAND = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-m", "not acceptance"]
TIMEOUT = 600.0

_COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
            ast.In: ast.NotIn, ast.NotIn: ast.In}
_ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_BOOL = {ast.And: ast.Or, ast.Or: ast.And}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
           ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.And: "and", ast.Or: "or"}


class _Mutator(ast.NodeTransformer):
    """Lists the mutation points in visiting order; applies the ``target``-th, if given."""

    def __init__(self, text: str, target: int | None = None):
        self.lines, self.target, self.points = text.splitlines(), target, []

    def visit(self, node):
        for kind, change, make in self._candidates(node):
            self.points.append({"line": node.lineno, "kind": kind,
                                "source": self.lines[node.lineno - 1].strip(), "change": change})
            if len(self.points) - 1 == self.target:
                return ast.copy_location(make(), node)
        return self.generic_visit(node)

    def _candidates(self, node):
        if isinstance(node, ast.stmt) and not isinstance(node, ast.Pass) and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            yield "stmt", "statement -> pass", ast.Pass
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                flipped = _COMPARE[type(op)]
                yield ("compare", f"`{_SYMBOL[type(op)]}` -> `{_SYMBOL[flipped]}`",
                       lambda i=i, flipped=flipped: ast.Compare(
                           node.left, node.ops[:i] + [flipped()] + node.ops[i + 1:],
                           node.comparators))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _ARITH:
            swapped = _ARITH[type(node.op)]
            yield ("arith", f"`{_SYMBOL[type(node.op)]}` -> `{_SYMBOL[swapped]}`",
                   lambda: _with_op(node, swapped()))
        if isinstance(node, ast.BoolOp):
            swapped = _BOOL[type(node.op)]
            yield ("bool", f"`{_SYMBOL[type(node.op)]}` -> `{_SYMBOL[swapped]}`",
                   lambda: ast.BoolOp(swapped(), node.values))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield "bool", "`not` dropped", lambda: node.operand
        if (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool)):
            yield "const", f"`{node.value!r}` -> `{node.value + 1!r}`", \
                lambda: ast.Constant(node.value + 1)


def _with_op(node, op):
    fields = dict(ast.iter_fields(node), op=op)
    return type(node)(**fields)


def mutation_points(text: str) -> list[dict]:
    """Every mutation point of a module's source, in visiting order."""
    mutator = _Mutator(text)
    mutator.visit(ast.parse(text))
    return mutator.points


def mutant(text: str, index: int | None) -> str:
    """The module with its ``index``-th point mutated (None: none), as ``ast.unparse`` writes it."""
    tree = _Mutator(text, index).visit(ast.parse(text))
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def _run(command: list[str], cwd: str, timeout: float) -> tuple[str, float]:
    """Run ``command`` in its own process group; its verdict and seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(cwd, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
        verdict = "survived" if code == 0 else "killed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        verdict = "timeout"
    return verdict, round(time.perf_counter() - started, 3)


def _equivalents(path: str | None, module: str) -> set[tuple[str, str]]:
    if not path:
        return set()
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    return {(e["source"], e["change"]) for e in entries if e["module"] == module}


def sweep(module: str, sample: int, seed: int, root: str = ROOT,
          command: list[str] = COMMAND, timeout: float = TIMEOUT,
          equivalent: str | None = EQUIVALENT) -> dict:
    """Run a sample of ``module``'s mutants against ``command`` in a copy of ``root``."""
    module = os.path.normpath(module)
    with open(os.path.join(root, module), encoding="utf-8") as fh:
        text = fh.read()
    points = mutation_points(text)
    chosen = sorted(random.Random(seed).sample(range(len(points)), min(sample, len(points))))
    known = _equivalents(equivalent, module)
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = os.path.join(tmp, "tree")
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        target = os.path.join(copy, module)

        def run_with(source: str) -> tuple[str, float]:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(source)
            return _run(command, copy, timeout)

        verdict, _ = run_with(mutant(text, None))
        if verdict != "survived":
            raise SystemExit(f"the unmutated {module} does not pass: {verdict}")
        results = []
        for index in chosen:
            entry = dict(points[index], id=index)
            if (entry["source"], entry["change"]) in known:
                entry.update(verdict="equivalent", seconds=0.0)
            else:
                entry["verdict"], entry["seconds"] = run_with(mutant(text, index))
            results.append(entry)
            print(f"{index} line {entry['line']} {entry['change']}: {entry['verdict']}",
                  file=sys.stderr)
    counts = {v: sum(r["verdict"] == v for r in results)
              for v in ("killed", "timeout", "survived", "equivalent")}
    return {"module": module, "seed": seed, "points": len(points), "sampled": len(results),
            "counts": counts, "mutants": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", required=True, help="module to mutate, as a relative path")
    parser.add_argument("--sample", type=int, required=True, help="number of mutants to draw")
    parser.add_argument("--seed", type=int, default=0, help="seed of the draw")
    parser.add_argument("--out", help="file for the JSON verdicts (default stdout)")
    args = parser.parse_args(argv)
    doc = json.dumps(sweep(args.module, args.sample, args.seed), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
