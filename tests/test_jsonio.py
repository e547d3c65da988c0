"""All-or-nothing artifact writes."""

from __future__ import annotations

import json
import os

import pytest

from shiftlab._jsonio import write_file, write_json, write_text


class Unserialisable:
    pass


def test_writes_indented_json(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"a": [1, 2.5], "b": None})
    assert path.read_text(encoding="utf-8") == json.dumps({"a": [1, 2.5], "b": None}, indent=2)
    assert os.listdir(tmp_path) == ["doc.json"]


def test_replaces_existing_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("old", encoding="utf-8")
    write_text(path, ["[1", "]"])
    assert path.read_text(encoding="utf-8") == "[1]"


def test_serialisation_failure_keeps_old_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"old": true}', encoding="utf-8")

    def pieces():
        # the first piece is in the temporary file before the encoder meets the bad value
        yield json.dumps({"first": [[1.0] * 100] * 3})
        yield json.dumps({"bad": [[Unserialisable()]]})

    with pytest.raises(TypeError):
        write_text(path, pieces())
    assert path.read_text(encoding="utf-8") == '{"old": true}'
    assert os.listdir(tmp_path) == ["doc.json"]


def test_binary_write(tmp_path):
    path = tmp_path / "blob.bin"
    write_file(path, lambda fh: fh.write(b"\x00\r\n\xff"))
    assert path.read_bytes() == b"\x00\r\n\xff"
    assert os.listdir(tmp_path) == ["blob.bin"]


def test_failed_replace_removes_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text('{"old": true}', encoding="utf-8")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_json(path, {"new": True})
    assert path.read_text(encoding="utf-8") == '{"old": true}'
    assert os.listdir(tmp_path) == ["doc.json"]


def test_failed_write_removes_temporary_file(tmp_path, monkeypatch):
    # a write that dies part-way: the temporary file exists and holds a prefix
    path = tmp_path / "doc.json"
    path.write_text('{"old": true}', encoding="utf-8")
    real_open = open

    class Truncating:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError("disk full")

    monkeypatch.setattr("builtins.open", lambda *a, **k: Truncating(real_open(*a, **k)))
    with pytest.raises(OSError, match="disk full"):
        write_json(path, {"new": list(range(50))})
    monkeypatch.undo()
    assert path.read_text(encoding="utf-8") == '{"old": true}'
    assert os.listdir(tmp_path) == ["doc.json"]


def test_temporary_file_sits_beside_any_path_like_target(tmp_path, monkeypatch):
    # a path-like object whose str() is not its path: the temporary name is
    # built from os.fspath, so it is written beside the target, not in the
    # working directory
    out = tmp_path / "out"
    out.mkdir()

    class Target:
        def __fspath__(self):
            return str(out / "blob.bin")

    monkeypatch.chdir(tmp_path)
    dirs = []

    def write(fh):
        dirs.append(os.path.dirname(fh.name))
        fh.write(b"new")

    write_file(Target(), write)
    assert dirs == [str(out)]
    assert (out / "blob.bin").read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["out"] and os.listdir(out) == ["blob.bin"]
