"""Write JSON through the C encoder, byte for byte what ``json.dump`` writes.

``json.dump`` always runs the pure-Python encoder: it streams chunks to the
file, and only ``json.dumps`` -- which builds the whole text at once -- uses
the C accelerator.  :func:`dump` keeps the streaming and gains the speed: it
writes the top two levels of containers itself and hands each value below
them to ``json.dumps``.  Peak memory stays one leaf's text, not the whole
document's.

:func:`write_atomic` is the one durable JSON file writer: checkpoints, the
store index and the store marker all go through it.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import IO

__all__ = ["dump", "fsync_directory", "write_atomic"]

#: Container levels written by hand; everything deeper is one ``json.dumps``.
_STREAMED_DEPTH = 2


def _key(key: object) -> str:
    """Encode a dict key as ``json.dump`` does (keys become strings)."""
    if isinstance(key, str):
        return json.dumps(key)
    if isinstance(key, float) or key is True or key is False or key is None:
        # The key is the value's JSON spelling: 1.5, NaN, true, null.
        return json.dumps(json.dumps(key))
    if isinstance(key, int):
        return json.dumps(int.__repr__(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _write(handle: IO[str], value: object, depth: int) -> None:
    if depth and isinstance(value, dict):
        handle.write("{")
        for index, (key, item) in enumerate(value.items()):
            handle.write(", " if index else "")
            handle.write(_key(key))
            handle.write(": ")
            _write(handle, item, depth - 1)
        handle.write("}")
    elif depth and isinstance(value, (list, tuple)):
        handle.write("[")
        for index, item in enumerate(value):
            handle.write(", " if index else "")
            _write(handle, item, depth - 1)
        handle.write("]")
    else:
        handle.write(json.dumps(value))


def dump(value: object, handle: IO[str]) -> None:
    """Serialise ``value`` to the text file ``handle`` exactly as
    ``json.dump(value, handle)`` with default arguments would."""
    _write(handle, value, _STREAMED_DEPTH)


def fsync_directory(path: str) -> None:
    """fsync a directory so an entry created or renamed in it is durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path: str, value: object) -> None:
    """Durably and atomically replace ``path`` with ``value`` as JSON.

    Temp file + ``os.replace`` alone is *atomic* but not *durable*: without
    an fsync of the temp file a crash shortly after the rename can leave the
    final name pointing at truncated (or empty) data, and without an fsync of
    the directory the rename itself may not have reached disk.  Both syncs
    run here, so once this function returns the file survives a crash.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            dump(value, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    fsync_directory(directory)
