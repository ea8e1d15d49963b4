"""Compact key index over the store's segments.

The index maps each configuration hash to the location and summary metadata
of its *newest* record, so lookups and queries never scan segment payloads.
It is strictly a cache: ``index.json`` remembers the byte size of every
segment it was built from, and :meth:`StoreIndex.current` rebuilds from a
full segment scan whenever the directory listing disagrees (another writer
appended, a segment was gc'd, the index file is missing or damaged).  Losing
the index therefore never loses data.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import jsonio
from repro.store.schema import SCHEMA_VERSION, StoreSchemaError
from repro.store.segments import list_segments, scan_segment

__all__ = ["IndexEntry", "StoreIndex"]

#: Index entry of one key: location + queryable summary of the newest record.
IndexEntry = Dict[str, Any]  # segment, offset, length, kind, seq, meta


def _entry_order(entry: Mapping[str, Any]) -> Tuple[int, str, int]:
    """Newest-wins ordering: sequence ordinal, then segment name, then offset
    (concurrent writers may share a seq; the tie-break keeps gc and lookups
    deterministic either way)."""
    return int(entry["seq"]), str(entry["segment"]), int(entry["offset"])


class StoreIndex:
    """In-memory index with an atomic JSON snapshot on disk."""

    def __init__(
        self,
        entries: Optional[Dict[str, IndexEntry]] = None,
        segments: Optional[Dict[str, int]] = None,
        total_records: int = 0,
    ) -> None:
        self.entries: Dict[str, IndexEntry] = entries if entries is not None else {}
        self.segments: Dict[str, int] = segments if segments is not None else {}
        #: All records across segments, including superseded duplicates.
        self.total_records = total_records

    @property
    def next_seq(self) -> int:
        if not self.entries:
            return 0
        return max(int(e["seq"]) for e in self.entries.values()) + 1

    def absorb(self, key: str, entry: IndexEntry) -> None:
        """Record one append (newest record wins)."""
        self.total_records += 1
        current = self.entries.get(key)
        if current is None or _entry_order(entry) > _entry_order(current):
            self.entries[key] = entry

    # ------------------------------------------------------------------ #
    # Build / load / save
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, segments_dir: str) -> "StoreIndex":
        """Rebuild the index from a full scan of every segment."""
        index = cls(segments=list_segments(segments_dir))
        for name in index.segments:
            for offset, length, record in scan_segment(segments_dir, name):
                index.absorb(
                    record["key"],
                    {
                        "segment": name,
                        "offset": offset,
                        "length": length,
                        "kind": record["kind"],
                        "seq": record["seq"],
                        "meta": record.get("meta", {}),
                    },
                )
        return index

    @classmethod
    def current(cls, segments_dir: str, index_path: str) -> "StoreIndex":
        """The up-to-date index: the saved snapshot if it still matches the
        segment listing byte-for-byte, else a fresh rebuild."""
        actual = list_segments(segments_dir)
        saved = cls._load(index_path)
        if saved is not None and saved.segments == actual:
            return saved
        index = cls.build(segments_dir)
        return index

    @classmethod
    def _load(cls, path: str) -> Optional["StoreIndex"]:
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None  # damaged cache: rebuild from segments
        if data.get("schema_version") != SCHEMA_VERSION:
            raise StoreSchemaError(
                f"index {path!r} has schema version "
                f"{data.get('schema_version')!r}; this build reads version "
                f"{SCHEMA_VERSION}"
            )
        return cls(
            entries=dict(data["entries"]),
            segments={str(k): int(v) for k, v in data["segments"].items()},
            total_records=int(data.get("total_records", len(data["entries"]))),
        )

    def save(self, path: str) -> None:
        """Atomically snapshot the index (temp file + fsync + rename)."""
        directory = os.path.dirname(os.path.abspath(path))
        payload = {
            "schema_version": SCHEMA_VERSION,
            "segments": self.segments,
            "entries": self.entries,
            "total_records": self.total_records,
        }
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                jsonio.dump(payload, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def select(
        self,
        kind: Optional[str] = None,
        key_prefix: Optional[str] = None,
    ) -> List[Tuple[str, IndexEntry]]:
        """Latest entries filtered by kind / key prefix, oldest first."""
        rows = [
            (key, entry)
            for key, entry in self.entries.items()
            if (kind is None or entry["kind"] == kind)
            and (key_prefix is None or key.startswith(key_prefix))
        ]
        rows.sort(key=lambda item: _entry_order(item[1]))
        return rows
