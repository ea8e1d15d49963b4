"""The persistent result store: append-only records behind one handle.

Layout of a store directory::

    <root>/
        store.json      # {"format": "repro-result-store", "schema_version": 1}
        index.json      # rebuildable cache (see repro.store.index)
        segments/       # append-only JSONL record segments

:class:`ResultStore` is the single surface every layer talks through: the
sweep engine records finished sweeps and serves exact configuration-hash hits
without re-simulation, the design-space explorer and the figure functions are
read-through views, and the CLI's ``store query|gc|export`` commands operate
on the same handle.  See the README's "Result store" section for the keying
and gc semantics.

Concurrency: any number of processes may write to one store concurrently --
each handle appends to its own exclusive segment (``repro.store.segments``),
and readers merge the union with newest-``seq``-wins semantics.  A handle's
in-memory view is a snapshot taken at open time; call :meth:`refresh` to see
records other processes appended since.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Any, Dict, List, Mapping, Optional

from repro import jsonio
from repro.store.index import StoreIndex
from repro.store.schema import (
    SCHEMA_VERSION,
    STORE_FORMAT,
    StoreError,
    StoreSchemaError,
    make_record,
)
from repro.store.segments import SegmentWriter, read_record_at, scan_segment

__all__ = ["ResultStore"]

_STORE_MARKER = "store.json"
_INDEX_FILE = "index.json"
_SEGMENTS_DIR = "segments"

#: Export formats of :meth:`ResultStore.export`.
EXPORT_FORMATS = ("jsonl", "csv")


class ResultStore:
    """One result-store directory, opened for reading and appending."""

    def __init__(self, root: str, *, create: bool = True) -> None:
        self.root = os.path.abspath(root)
        self._segments_dir = os.path.join(self.root, _SEGMENTS_DIR)
        self._index_path = os.path.join(self.root, _INDEX_FILE)
        marker = os.path.join(self.root, _STORE_MARKER)
        if os.path.exists(marker):
            with open(marker, "r", encoding="utf-8") as handle:
                info = json.load(handle)
            if info.get("format") != STORE_FORMAT:
                raise StoreError(
                    f"{self.root!r} is not a result store "
                    f"(format {info.get('format')!r})"
                )
            if info.get("schema_version") != SCHEMA_VERSION:
                raise StoreSchemaError(
                    f"store {self.root!r} has schema version "
                    f"{info.get('schema_version')!r}; this build reads "
                    f"version {SCHEMA_VERSION} -- run the matching release "
                    f"or export/re-import the store"
                )
        elif create:
            os.makedirs(self._segments_dir, exist_ok=True)
            self._write_marker(marker)
        else:
            raise StoreError(f"no result store at {self.root!r}")
        os.makedirs(self._segments_dir, exist_ok=True)
        self._index = StoreIndex.current(self._segments_dir, self._index_path)
        self._next_seq = self._index.next_seq
        self._writer = SegmentWriter(self._segments_dir)
        #: Hit / append events of this handle's lifetime (drives CLI notes
        #: and the zero-re-evaluation assertions of the smoke tests).
        self.session_events: List[Dict[str, Any]] = []

    @staticmethod
    def _write_marker(marker: str) -> None:
        jsonio.write_atomic(
            marker, {"format": STORE_FORMAT, "schema_version": SCHEMA_VERSION}
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Re-read the segment listing (picks up other writers' appends)."""
        self._index = StoreIndex.current(self._segments_dir, self._index_path)
        self._next_seq = max(self._next_seq, self._index.next_seq)

    def close(self) -> None:
        """Flush the index snapshot and release the writer segment."""
        self._writer.close()
        self._index.save(self._index_path)

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _list_segments(self) -> Dict[str, int]:
        from repro.store.segments import list_segments

        return list_segments(self._segments_dir)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._index.entries)

    def keys(self) -> List[str]:
        """Every stored configuration hash (latest records)."""
        return [key for key, _entry in self._index.select()]

    def __contains__(self, key: str) -> bool:
        return key in self._index.entries

    def get_record(
        self, key: str, kind: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """The newest record of ``key`` (``None`` when absent).

        ``kind`` asserts the record's evaluation mode; a mismatch means the
        caller's keying is broken (the hash should already separate modes),
        so it raises instead of returning the wrong payload.
        """
        entry = self._index.entries.get(key)
        if entry is None:
            return None
        if kind is not None and entry["kind"] != kind:
            raise StoreError(
                f"record {key[:16]} holds {entry['kind']!r} results, "
                f"expected {kind!r}"
            )
        record = read_record_at(
            self._segments_dir,
            entry["segment"],
            int(entry["offset"]),
            int(entry["length"]),
        )
        if record["key"] != key:
            raise StoreError(
                f"stale index: segment {entry['segment']!r} offset "
                f"{entry['offset']} holds key {record['key'][:16]}, expected "
                f"{key[:16]}; delete index.json to rebuild"
            )
        self.session_events.append(
            {"type": "hit", "key": key, "kind": entry["kind"],
             "meta": dict(entry.get("meta", {}))}
        )
        return record

    def query(
        self,
        kind: Optional[str] = None,
        key_prefix: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Summaries of the latest record per key (no payload decoding)."""
        return [
            {
                "key": key,
                "kind": entry["kind"],
                "seq": entry["seq"],
                "segment": entry["segment"],
                "meta": dict(entry.get("meta", {})),
            }
            for key, entry in self._index.select(kind, key_prefix)
        ]

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def put_record(
        self,
        key: str,
        kind: str,
        payload: Mapping[str, Any],
        meta: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Durably append one record and update the index snapshot.

        Appending never rewrites earlier records: a repeated ``key`` simply
        supersedes the old record at read time (gc reclaims the bytes).
        """
        record = make_record(key, kind, self._next_seq, payload, meta)
        self._next_seq += 1
        segment, offset, length = self._writer.append(record)
        self._index.absorb(
            key,
            {
                "segment": segment,
                "offset": offset,
                "length": length,
                "kind": kind,
                "seq": record["seq"],
                "meta": dict(meta) if meta is not None else {},
            },
        )
        # Only stamp the segment this append actually landed in: the snapshot
        # must never claim coverage of segments this handle has not scanned
        # (concurrent writers' appends), or a reopen would trust a stale
        # index instead of rebuilding from the segment listing.
        self._index.segments[segment] = offset + length
        self._index.save(self._index_path)
        self.session_events.append(
            {"type": "put", "key": key, "kind": kind,
             "meta": dict(meta) if meta is not None else {}}
        )
        return record

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def gc(self) -> Dict[str, int]:
        """Compact the store: keep the newest record per key, drop the rest.

        Live records are copied into one fresh segment (fsynced before any
        old bytes are touched), then the superseded segments are deleted and
        the index snapshot rebuilt.  Returns ``{"kept", "dropped",
        "segments_removed"}``.
        """
        self._writer.close()
        self.refresh()
        old_segments = self._list_segments()
        live = self._index.select()
        dropped = self._index.total_records - len(live)
        with SegmentWriter(self._segments_dir, stem="gc") as writer:
            for key, entry in live:
                record = read_record_at(
                    self._segments_dir,
                    entry["segment"],
                    int(entry["offset"]),
                    int(entry["length"]),
                )
                writer.append(record)
            new_name = writer.name
        removed = 0
        for name in old_segments:
            if name != new_name:
                os.unlink(os.path.join(self._segments_dir, name))
                removed += 1
        self.refresh()
        self._index.save(self._index_path)
        self._writer = SegmentWriter(self._segments_dir)
        return {
            "kept": len(live),
            "dropped": dropped,
            "segments_removed": removed,
        }

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def _export_rows(self) -> List[Dict[str, Any]]:
        """One flat row per live record (meta fields inlined)."""
        rows: List[Dict[str, Any]] = []
        for key, entry in self._index.select():
            meta = entry.get("meta", {})
            rows.append(
                {
                    "key": key,
                    "kind": entry["kind"],
                    "seq": int(entry["seq"]),
                    "benchmark": meta.get("benchmark", ""),
                    "schemes": "|".join(meta.get("schemes", [])),
                    "p_cell": meta.get("p_cell"),
                    "total_dies": meta.get("total_dies"),
                    "evaluated_dies": meta.get("evaluated_dies"),
                }
            )
        return rows

    def export(self, path: str, format: str = "jsonl") -> int:
        """Export the live records; returns the number of rows written.

        ``jsonl`` dumps full records (payloads included, lossless -- a
        re-import is a byte-exact replay).  ``csv`` writes the flat summary
        table.
        """
        if format not in EXPORT_FORMATS:
            raise StoreError(
                f"unknown export format {format!r}; expected one of "
                f"{', '.join(EXPORT_FORMATS)}"
            )
        live = self._index.select()
        if format == "jsonl":
            with open(path, "w", encoding="utf-8") as handle:
                for key, entry in live:
                    record = read_record_at(
                        self._segments_dir,
                        entry["segment"],
                        int(entry["offset"]),
                        int(entry["length"]),
                    )
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
            return len(live)
        rows = self._export_rows()
        fields = [
            "key", "kind", "seq", "benchmark", "schemes", "p_cell",
            "total_dies", "evaluated_dies",
        ]
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
        return len(rows)

    # ------------------------------------------------------------------ #
    # Introspection helpers (tests, CLI)
    # ------------------------------------------------------------------ #
    def record_count(self) -> int:
        """Number of live (latest-per-key) records."""
        return len(self._index.entries)

    def total_records(self) -> int:
        """Number of records across all segments, superseded included."""
        return self._index.total_records

    def iter_all_records(self):
        """Every record in every segment, superseded included (gc's view)."""
        for name in sorted(self._list_segments()):
            yield from (
                record
                for _offset, _length, record in scan_segment(
                    self._segments_dir, name
                )
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultStore(root={self.root!r}, records={len(self)}, "
            f"segments={len(self._list_segments())})"
        )
