"""Write JSON through the C encoder, byte for byte what ``json.dump`` writes.

``json.dump`` always runs the pure-Python encoder: it streams chunks to the
file, and only ``json.dumps`` -- which builds the whole text at once -- uses
the C accelerator.  :func:`dump` keeps the streaming and gains the speed: it
writes the top two levels of containers itself and hands each value below
them, a *leaf*, to the C encoder.  Peak memory stays one leaf's text, not
the whole document's.  ``json.dumps`` builds a new C encoder on every call;
:func:`dump` builds one, with the same arguments, and encodes every leaf of
the call with it.

A dict leaf that holds list values is written item by item: each list
object is encoded once per :func:`dump` call, however often the document
holds it (an identity memo that lives for that call), and each run of the
other items is encoded as one dict, braces cut off.  So a checkpoint whose
sketches share one grid list encodes the grid once.  Every piece is the C
encoder's text, so the document is still what ``json.dumps`` writes.  Other
leaves are encoded whole.

:func:`write_atomic` is the one durable JSON file writer: checkpoints, the
store index and the store marker all go through it.  It and the optimizer's
rung-checkpoint copy share one durable-replace sequence,
:func:`replace_durably`.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import IO, Callable, Dict, Iterator

__all__ = ["dump", "fsync_directory", "replace_durably", "write_atomic"]

#: Container levels written by hand; everything deeper is one leaf.
_STREAMED_DEPTH = 2

_Encode = Callable[[object], str]


def _leaf_encoder() -> _Encode:
    """The text ``json.dumps`` gives a value, from one reusable C encoder.

    The arguments are the ones ``json.dumps`` passes with its defaults.
    Without the C accelerator this is ``json.dumps`` itself.
    """
    if c_make_encoder is None:  # pragma: no cover - CPython always has it
        return json.dumps
    defaults = json.JSONEncoder()
    encoder = c_make_encoder(
        {},
        defaults.default,
        encode_basestring_ascii,
        None,
        defaults.key_separator,
        defaults.item_separator,
        defaults.sort_keys,
        defaults.skipkeys,
        defaults.allow_nan,
    )
    join = "".join
    return lambda value: join(encoder(value, 0))


def _key(key: object) -> str:
    """Encode a dict key as ``json.dump`` does (keys become strings)."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, float) or key is True or key is False or key is None:
        # The key is the value's JSON spelling: 1.5, NaN, true, null.
        return json.dumps(json.dumps(key))
    if isinstance(key, int):
        return json.dumps(int.__repr__(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _dict_with_lists(
    value: Dict[object, object], encode: _Encode, memo: Dict[int, str]
) -> str:
    """The text of a dict leaf that holds list values.

    Every list object in the document stays referenced by it for the whole
    :func:`dump` call, so an ``id`` in ``memo`` never names a second list.
    """
    parts = []
    run: Dict[object, object] = {}
    for key, item in value.items():
        if type(item) is list:
            if run:
                parts.append(encode(run)[1:-1])
                run = {}
            text = memo.get(id(item))
            if text is None:
                text = memo[id(item)] = encode(item)
            parts.append(f"{_key(key)}: {text}")
        else:
            run[key] = item
    if run:
        parts.append(encode(run)[1:-1])
    return "{" + ", ".join(parts) + "}"


def _write(
    handle: IO[str],
    value: object,
    depth: int,
    encode: _Encode,
    memo: Dict[int, str],
) -> None:
    if depth and isinstance(value, dict):
        handle.write("{")
        for index, (key, item) in enumerate(value.items()):
            handle.write(", " if index else "")
            handle.write(_key(key))
            handle.write(": ")
            _write(handle, item, depth - 1, encode, memo)
        handle.write("}")
    elif depth and isinstance(value, (list, tuple)):
        handle.write("[")
        for index, item in enumerate(value):
            handle.write(", " if index else "")
            _write(handle, item, depth - 1, encode, memo)
        handle.write("]")
    elif type(value) is dict and list in map(type, value.values()):
        handle.write(_dict_with_lists(value, encode, memo))
    else:
        handle.write(encode(value))


def dump(value: object, handle: IO[str]) -> None:
    """Serialise ``value`` to the text file ``handle`` exactly as
    ``json.dump(value, handle)`` with default arguments would."""
    _write(handle, value, _STREAMED_DEPTH, _leaf_encoder(), {})


def fsync_directory(path: str) -> None:
    """fsync a directory so an entry created or renamed in it is durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextlib.contextmanager
def replace_durably(path: str, mode: str = "w") -> Iterator[IO]:
    """Durably and atomically replace ``path`` with what the ``with`` body
    writes to the yielded file (opened in ``mode``, UTF-8 when text).

    Temp file + ``os.replace`` alone is *atomic* but not *durable*: without
    an fsync of the temp file a crash shortly after the rename can leave the
    final name pointing at truncated (or empty) data, and without an fsync of
    the directory the rename itself may not have reached disk.  Both syncs
    run here, so once the ``with`` block exits the file survives a crash.  A
    body that raises leaves neither the temp file nor a new ``path`` behind.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    encoding = None if "b" in mode else "utf-8"
    try:
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    fsync_directory(directory)


def write_atomic(path: str, value: object) -> None:
    """Durably and atomically replace ``path`` with ``value`` as JSON
    (:func:`replace_durably`)."""
    with replace_durably(path) as handle:
        dump(value, handle)
