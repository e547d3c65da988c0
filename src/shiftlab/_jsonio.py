"""Crash-safe writes of JSON, text and binary artifacts, and the type rules
that JSON read back into a dataclass must meet."""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import typing
from collections.abc import Callable, Iterable


def fits(value, kind) -> bool:
    """Whether a JSON value fits a declared type; bools are no numbers, floats no ints."""
    if kind in (int, float):
        return isinstance(value, (int, kind)) and not isinstance(value, bool)
    args = typing.get_args(kind)
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(fits(v, args[0]) for v in value)
    return any(fits(value, arg) for arg in args) if args else isinstance(value, kind)


@functools.cache
def _field_types(cls) -> tuple[dict, dict]:
    """``cls``'s fields: their declared type strings, and the types they name.

    Made once per class, since ``typing.get_type_hints`` evaluates every
    annotation; the dicts are shared by every caller and only read.
    """
    return {f.name: f.type for f in dataclasses.fields(cls)}, typing.get_type_hints(cls)


def build(cls, doc, where: str, error: type[Exception]):
    """``cls(**doc)`` for a JSON object whose keys and values fit ``cls``'s fields.

    Anything else raises ``error`` with a message that names ``where`` and
    the field.
    """
    if not isinstance(doc, dict):
        raise error(f"{where} must be an object, got {type(doc).__name__}")
    declared, hints = _field_types(cls)
    unknown = set(doc) - set(declared)
    if unknown:
        raise error(f"unknown keys in {where}: {sorted(unknown)}")
    for key, value in doc.items():
        if not fits(value, hints[key]):
            raise error(f"{where}.{key} must be {declared[key]}, got {value!r}")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise error(f"{where}: {exc}") from exc


def write_json(path, doc) -> None:
    """Write ``doc`` as JSON indented by 2, all or nothing (see ``write_file``)."""
    write_text(path, [json.dumps(doc, indent=2)])


def write_text(path, pieces: Iterable[str]) -> None:
    """Write the joined ``pieces`` as UTF-8, untranslated, all or nothing (see ``write_file``)."""

    def write(fh) -> None:
        for piece in pieces:
            fh.write(piece.encode("utf-8"))

    write_file(path, write)


def write_file(path, write: Callable) -> None:
    """Call ``write(fh)`` on a new binary file and put it at ``path``, all or nothing.

    ``fh`` is a temporary file in the same directory, which is then moved
    over ``path`` with ``os.replace``. A reader sees the old file or the
    complete new one, never a truncated one. If any step fails, ``write``
    included, the old file stays as it was and the temporary file is
    removed. Nothing is fsynced: this guards against a failing or killed
    process, not against power loss.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise
