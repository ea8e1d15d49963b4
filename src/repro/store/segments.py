"""Append-only JSONL segment files -- the store's durable byte layer.

Records live in ``segments/*.jsonl``, one JSON document per line.  Two rules
make the layer safe under concurrent writers and crashes:

* **One segment per writer.**  Every :class:`SegmentWriter` claims a fresh
  file with ``O_CREAT | O_EXCL`` (name: ``seg-<pid>-<n>.jsonl``), so two
  processes appending to the same store can never interleave bytes within a
  line -- their records land in different files, and a reader sees the union.
* **Append + fsync.**  A record is written as one complete line in a single
  ``os.write`` call and fsynced before :meth:`SegmentWriter.append` returns,
  so an acknowledged record survives a crash.  A torn final line (the writer
  died mid-append) is detected by the scanner and reported loudly rather than
  silently dropped or misparsed.

Segments are never modified in place; garbage collection writes a new
compacted segment and deletes the old files afterwards.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, Mapping, Tuple

from repro import jsonio
from repro.store.schema import StoreError, validate_record

__all__ = [
    "SEGMENT_SUFFIX",
    "SegmentWriter",
    "list_segments",
    "read_record_at",
    "scan_segment",
]

SEGMENT_SUFFIX = ".jsonl"


class SegmentWriter:
    """Owns one append-only segment file (created lazily, exclusively)."""

    def __init__(self, directory: str, stem: str = "seg") -> None:
        self._directory = directory
        self._stem = stem
        self._fd: int | None = None
        self.name: str | None = None

    def _ensure_open(self) -> int:
        if self._fd is not None:
            return self._fd
        # O_EXCL claims a name no other writer holds; the pid plus a local
        # counter keeps the loop short even when one process opens several
        # writers against the same store.
        counter = 0
        while True:
            name = f"{self._stem}-{os.getpid()}-{counter}{SEGMENT_SUFFIX}"
            path = os.path.join(self._directory, name)
            try:
                self._fd = os.open(
                    path, os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_EXCL,
                    0o644,
                )
            except FileExistsError:
                counter += 1
                continue
            self.name = name
            jsonio.fsync_directory(self._directory)
            return self._fd

    def append(self, record: Mapping[str, Any]) -> Tuple[str, int, int]:
        """Durably append one record; returns ``(segment, offset, length)``."""
        fd = self._ensure_open()
        line = json.dumps(record, sort_keys=True) + "\n"
        data = line.encode("utf-8")
        offset = os.lseek(fd, 0, os.SEEK_END)
        written = os.write(fd, data)
        if written != len(data):  # pragma: no cover - short writes on
            # regular files only happen on ENOSPC-style failures
            raise StoreError(
                f"short write to segment {self.name!r} "
                f"({written} of {len(data)} bytes)"
            )
        os.fsync(fd)
        assert self.name is not None
        return self.name, offset, len(data)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def list_segments(directory: str) -> Dict[str, int]:
    """``{segment name: byte size}`` of every segment file in ``directory``."""
    if not os.path.isdir(directory):
        return {}
    sizes: Dict[str, int] = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(SEGMENT_SUFFIX):
            sizes[name] = os.path.getsize(os.path.join(directory, name))
    return sizes


def scan_segment(
    directory: str, name: str
) -> Iterator[Tuple[int, int, Dict[str, Any]]]:
    """Yield ``(offset, length, record)`` for every record of one segment.

    A torn trailing line (no newline terminator -- the writer crashed while
    appending) raises :class:`StoreError` naming the segment, because a store
    that silently ignored half a record could also silently ignore a whole
    one.
    """
    path = os.path.join(directory, name)
    offset = 0
    with open(path, "rb") as handle:
        for raw in handle:
            length = len(raw)
            if not raw.endswith(b"\n"):
                raise StoreError(
                    f"segment {name!r} ends with a torn record at byte "
                    f"{offset}; the writer crashed mid-append -- truncate or "
                    f"delete the segment to recover"
                )
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as error:
                raise StoreError(
                    f"segment {name!r} holds a corrupt record at byte "
                    f"{offset}: {error}"
                ) from error
            validate_record(record, f"segment {name!r}")
            yield offset, length, record
            offset += length


def read_record_at(
    directory: str, name: str, offset: int, length: int
) -> Dict[str, Any]:
    """Read and validate one record at a known ``(offset, length)``."""
    path = os.path.join(directory, name)
    with open(path, "rb") as handle:
        handle.seek(offset)
        raw = handle.read(length)
    if len(raw) != length or not raw.endswith(b"\n"):
        raise StoreError(
            f"segment {name!r} does not hold a full record at offset "
            f"{offset} (stale index? run a query to rebuild it)"
        )
    record = json.loads(raw)
    validate_record(record, f"segment {name!r}")
    return record
