"""Write JSON through the C encoder, byte for byte what ``json.dump`` writes.

``json.dump`` always runs the pure-Python encoder: it streams chunks to the
file, and only ``json.dumps`` -- which builds the whole text at once -- uses
the C accelerator.  :func:`dump` keeps the streaming and gains the speed: it
writes the top two levels of containers itself and hands each value below
them to ``json.dumps``.  Peak memory stays one leaf's text, not the whole
document's.
"""

from __future__ import annotations

import json
from typing import IO

__all__ = ["dump"]

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
