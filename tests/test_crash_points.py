"""Crash points: each command fails at each of its writes in turn.

Every artifact goes through ``_jsonio.write_file``. For each command this
runs ``shiftlab`` once per write k, with the k-th write failing partway
through with ENOSPC, and checks what the failure leaves behind: exit 2,
only JSON files that parse, no manifest that says a cell is ``running``,
a seed's failed write listed in its cell's manifest, a failure mark in
the last write if any followed the failed one, and an output that
``report --dir`` either rebuilds or refuses by naming a manifest.
``write_file`` removes its own temporary file when the write raises, so
the check for ``*.tmp`` files guards only against a future write path
that bypasses it. The write count of each command is pinned, so a new
write site shows up here.
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


def _writes_failing_at(monkeypatch, k: int | None) -> list[str]:
    """Route every write through a ``write_file`` whose k-th call fails; return the paths."""
    write_file, paths = _jsonio.write_file, []

    def counted(path, write):
        paths.append(os.fspath(path))
        if len(paths) != k:
            return write_file(path, write)

        def partial(fh):
            fh.write(b'{"trunc')
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), os.fspath(path))

        return write_file(path, partial)

    monkeypatch.setattr(_jsonio, "write_file", counted)
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


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_write_of_a_command_fails_cleanly(command, tmp_path, monkeypatch, caplog):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(micro_doc("unused")), encoding="utf-8")
    extra, count = COMMANDS[command]

    def shiftlab(out, k=None):
        paths = _writes_failing_at(monkeypatch, k)
        code = main([command, "--config", str(config), "--out", str(out)] + extra)
        monkeypatch.undo()
        return code, paths

    code, paths = shiftlab(tmp_path / "whole")
    assert code == 0
    assert len(paths) == count, paths

    for k in range(1, count + 1):
        out = tmp_path / f"k{k}"
        code, paths = shiftlab(out, k)
        assert code == 2 and len(paths) >= k, (k, paths[k - 1:k])
        _leaves_a_consistent_tree(out)
        failed = pathlib.Path(paths[k - 1])
        if failed.parent.parent.name == "runs":
            # a seed's failed write is listed in its cell's manifest
            cell = json.loads((failed.parents[2] / "manifest.json").read_text(encoding="utf-8"))
            assert [f"seed{entry['seed']}" for entry in cell["failed"]] == [failed.parent.name]
        if len(paths) > k:
            # the writes after the failed one record it in a manifest
            last = pathlib.Path(paths[-1])
            doc = json.loads(last.read_text(encoding="utf-8"))
            assert last.name == "manifest.json" and (doc.get("failed") or "failed" in [
                cell["state"] for cell in doc.get("cells", [])]), (k, paths[k - 1:])
        caplog.clear()
        code = main(["report", "--dir", str(out)])
        assert code == 0 or (code == 1 and "manifest.json" in caplog.text), (k, paths[-1])
