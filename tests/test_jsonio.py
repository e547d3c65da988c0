"""All-or-nothing JSON artifact writes."""

from __future__ import annotations

import json
import os

import pytest

from shiftlab._jsonio import compact_json, write_json, write_text


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


@pytest.mark.parametrize("value", [
    {"config": {"dims": [128, 128], "name": "x"}, "seed": 3, "layers": [
        {"weight": [[0.1, -2.5e-300], [1.0 / 3.0, 7.0]], "bias": [[0.0, -0.0]]}]},
    [[1, [2, 3]], [], {}], [[]], [{}], [], {}, "s", 1.5, None, [1, [2]],
])
def test_compact_json_joins_to_json_dumps(value):
    assert "".join(compact_json(value)) == json.dumps(value)


def test_serialisation_failure_keeps_old_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"old": true}', encoding="utf-8")
    # "first" is in the temporary file before the encoder meets the bad value
    with pytest.raises(TypeError):
        write_text(path, compact_json({"first": [[1.0] * 100] * 3, "bad": [[Unserialisable()]]}))
    assert path.read_text(encoding="utf-8") == '{"old": true}'
    assert os.listdir(tmp_path) == ["doc.json"]


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
