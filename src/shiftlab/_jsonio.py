"""Crash-safe writes of JSON and text artifacts."""
from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator


def write_json(path, doc) -> None:
    """Write ``doc`` as JSON indented by 2, all or nothing (see ``write_text``)."""
    write_text(path, [json.dumps(doc, indent=2)])


def compact_json(value) -> Iterator[str]:
    """``json.dumps(value)``, yielded in pieces.

    Dicts, and lists whose first item is a list or dict, are opened up, so
    a matrix stored as a list of rows is encoded one row at a time. A piece
    is then at most one innermost list, rather than the whole document the
    one-shot encoder builds in memory, and the joined pieces equal
    ``json.dumps(value)`` byte for byte.
    """
    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from compact_json(item)
        yield "}"
    elif isinstance(value, list) and value and isinstance(value[0], (list, dict)):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from compact_json(item)
        yield "]"
    else:
        yield json.dumps(value)


def write_text(path, pieces: Iterable[str]) -> None:
    """Write the concatenated ``pieces`` to ``path``, all or nothing.

    The pieces go to a temporary file in the same directory, which is then
    moved over ``path`` with ``os.replace``. A reader sees the old file or
    the complete new one, never a truncated one. If any step fails, making
    the pieces included, the old file stays as it was and the temporary
    file is removed. Nothing is fsynced: this guards against a failing or
    killed process, not against power loss. Newlines are written as
    ``\n`` on every platform.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise
