"""Crash points: each command fails at each of its writes, and at each
directory it makes, in turn.

Every artifact goes through ``_jsonio.write_file``. For each command this
runs ``shiftlab`` once per write k, with the k-th write failing partway
through with ENOSPC, and checks what the failure leaves behind: exit 2,
a log line that names the failed file, only JSON files that parse, no
manifest that says a cell is ``running``, a seed's failed write listed in
its cell's manifest, a failure mark in the last write if any followed the
failed one, and an output that ``report --dir`` either rebuilds or
refuses by naming a manifest. The injected error names no file, as a
real ``fh.write`` that runs out of space does not. ``write_file`` removes
its own temporary file when the write raises, so the check for ``*.tmp``
files guards only against a future write path that bypasses it. The
same checks follow a failing ``os.makedirs`` at each of its calls for
``train`` and ``ablate``. The count of each command's writes and
directory calls is pinned, so a new site shows up here.
"""

from __future__ import annotations

import errno
import json
import os
import pathlib

import pytest

from shiftlab import _jsonio
from shiftlab.cli import main

from test_experiments import micro_doc

# The subcommand's own arguments, and how many files it writes on success
# with the one-seed micro config.
COMMANDS = {
    "train": ([], 11),
    "gen-data": ([], 3),
    "ablate": ([], 64),
    "sweep-if": (["--if-values", "5"], 41),
}
# How many ``os.makedirs`` calls, parents made on the way included, the
# commands whose directories are enumerated make with that config.
DIRECTORIES = {"train": 4, "ablate": 21}
# The config's one training seed.
SEEDS = [100]


def _writes_failing_at(monkeypatch, k: int | None) -> list[str]:
    """Route every write through a ``write_file`` whose k-th call fails; return the paths."""
    write_file, paths = _jsonio.write_file, []

    def counted(path, write):
        paths.append(os.fspath(path))
        if len(paths) != k:
            return write_file(path, write)

        def partial(fh):
            fh.write(b'{"trunc')
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        return write_file(path, partial)

    monkeypatch.setattr(_jsonio, "write_file", counted)
    return paths


def _directories_failing_at(monkeypatch, k: int | None) -> list[str]:
    """Route every ``os.makedirs`` call, a parent's included, through one whose k-th
    call fails; return the paths."""
    makedirs, paths = os.makedirs, []

    def counted(name, *args, **kwargs):
        paths.append(os.fspath(name))
        if len(paths) == k:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), os.fspath(name))
        return makedirs(name, *args, **kwargs)

    monkeypatch.setattr(os, "makedirs", counted)
    return paths


def _leaves_a_consistent_tree(out) -> None:
    assert not list(out.rglob("*.tmp"))
    for path in out.rglob("*.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            json.loads(line)
    for path in out.rglob("*.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if path.name == "manifest.json" and "cells" in doc:
            assert "running" not in [cell["state"] for cell in doc["cells"]], path


def _config(tmp_path) -> str:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(micro_doc("unused", SEEDS)), encoding="utf-8")
    return str(config)


def _run(command, config, out, monkeypatch, failing_at, k=None) -> tuple[int, list[str]]:
    """``shiftlab command`` into ``out`` with ``failing_at``'s k-th call failing."""
    paths = failing_at(monkeypatch, k)
    code = main([command, "--config", config, "--out", str(out)] + COMMANDS[command][0])
    monkeypatch.undo()
    return code, paths


def _fails_cleanly(out, code, paths, k, caplog) -> None:
    """The checks every crash point must pass; ``caplog`` holds the failed command's log."""
    failed = pathlib.Path(paths[k - 1])
    assert code == 2 and len(paths) >= k, (k, paths[k - 1:k])
    assert str(failed) in caplog.text, (k, caplog.text)
    _leaves_a_consistent_tree(out)
    runs = [p for p in (failed, *failed.parents[:2]) if p.name == "runs"]
    if runs:
        # a failed file or directory of a seed's run is listed in its cell's manifest
        cell = json.loads((runs[0].parent / "manifest.json").read_text(encoding="utf-8"))
        assert [entry["seed"] for entry in cell["failed"]] == SEEDS, k
    caplog.clear()
    code = main(["report", "--dir", str(out)])
    assert code == 0 or (code == 1 and "manifest.json" in caplog.text), (k, paths[-1])


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_write_of_a_command_fails_cleanly(command, tmp_path, monkeypatch, caplog):
    config = _config(tmp_path)
    code, paths = _run(command, config, tmp_path / "whole", monkeypatch, _writes_failing_at)
    assert code == 0
    assert len(paths) == COMMANDS[command][1], paths

    for k in range(1, len(paths) + 1):
        out = tmp_path / f"k{k}"
        caplog.clear()
        code, paths = _run(command, config, out, monkeypatch, _writes_failing_at, k)
        _fails_cleanly(out, code, paths, k, caplog)
        if len(paths) > k:
            # the writes after the failed one record it in a manifest
            last = pathlib.Path(paths[-1])
            doc = json.loads(last.read_text(encoding="utf-8"))
            assert last.name == "manifest.json" and (doc.get("failed") or "failed" in [
                cell["state"] for cell in doc.get("cells", [])]), (k, paths[k - 1:])


@pytest.mark.parametrize("command", list(DIRECTORIES))
def test_every_directory_of_a_command_fails_cleanly(command, tmp_path, monkeypatch, caplog):
    config = _config(tmp_path)
    code, paths = _run(command, config, tmp_path / "whole", monkeypatch, _directories_failing_at)
    assert code == 0
    assert len(paths) == DIRECTORIES[command], paths

    for k in range(1, len(paths) + 1):
        out = tmp_path / f"k{k}"
        caplog.clear()
        code, paths = _run(command, config, out, monkeypatch, _directories_failing_at, k)
        _fails_cleanly(out, code, paths, k, caplog)
