"""Persistent, append-only, schema-versioned result store.

Every Monte-Carlo sweep result is addressable by the engine's configuration
hash; :class:`ResultStore` makes those results durable across runs, so warm
re-runs are served from disk without a single new die evaluation and
downstream layers (figures, DSE, services) query one database instead of
figure-shaped files.  See the README's "Result store" section.

The store knows keys, records and files, not what computes them: it imports
neither the sweep engine nor :mod:`repro.dse`.  Which grid points of a DSE
spec a store already holds is :func:`repro.dse.grid_point_statuses`.
"""

from repro.store.schema import (
    SCHEMA_VERSION,
    StoreError,
    StoreSchemaError,
)
from repro.store.store import ResultStore

__all__ = [
    "SCHEMA_VERSION",
    "ResultStore",
    "StoreError",
    "StoreSchemaError",
]
