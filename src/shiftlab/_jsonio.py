"""Crash-safe writes of JSON, text and binary artifacts."""
from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable


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
