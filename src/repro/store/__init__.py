"""repro.store — the storage subsystem behind every cache consumer.

One interface, one write format:

* :class:`~repro.store.base.ResultStore` — the contract: content-address
  point lookups, columnar range scans (:class:`~repro.store.base.StoreQuery`
  over family / scheduler / binder / selector / T / P / R / feasibility),
  inventory and compaction.
* :class:`~repro.store.columnar.ColumnarStore` — the only layout a
  cache writes:
  sharded CRC-framed append segments (single ``O_APPEND`` write per
  record, torn tails repaired), merged by :meth:`compact` into sorted,
  indexed column files that answer range queries with partial reads.
* :class:`~repro.store.legacy.LegacyStore` — the original
  one-JSON-file-per-key layout, kept so old cache directories can be
  read (``repro store stats``/``query``) and migrated.

:mod:`~repro.store.claims` adds the package's one single-flight
protocol on top of the store: a claim is a kernel-held byte-range lock
on ``claims/locks`` at an offset taken from the content address, freed
by the kernel when its holder dies.  :func:`~repro.api.batch.run_task`
takes it around every cached synthesis, so many processes share one
store directory without ever synthesizing the same task twice.

:func:`open_store` opens a legacy directory as a :class:`LegacyStore`
and every other one as a :class:`ColumnarStore`;
:func:`~repro.store.migrate.migrate_store` /
:func:`~repro.store.migrate.verify_migration` convert a legacy cache
with bit-identical records or a loud failure.

The :class:`~repro.explore.cache.ResultCache` facade adds the journal,
stats counters, the in-memory layer and read/write gating on top; almost
every caller should keep going through it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .base import (
    COLUMN_NAMES,
    ResultStore,
    StoreError,
    StoreQuery,
    StoredRow,
    family_of,
    row_from_payload,
)
from .claims import Claim, lock_path, try_acquire
from .columnar import MANIFEST_NAME, ColumnarStore
from .journal import (
    JOURNAL_NAME,
    append_journal_line,
    iter_journal,
    iter_journal_payloads,
    journal_path,
    load_journal,
)
from .legacy import OBJECTS_DIR, LegacyStore
from .migrate import migrate_store, verify_migration


def detect_backend(root: Union[str, Path]) -> Optional[str]:
    """The backend an existing directory was written by, or ``None``.

    A ``store.json`` manifest marks a columnar store (which validates it
    on open); an ``objects/`` tree is the legacy layout; anything else
    (including a directory that does not exist yet) is undetermined.
    """
    root = Path(root).expanduser()
    if (root / MANIFEST_NAME).exists():
        return ColumnarStore.backend
    if (root / OBJECTS_DIR).is_dir():
        return LegacyStore.backend
    return None


def open_store(root: Union[str, Path]) -> ResultStore:
    """Open (or prepare) the store for a directory.

    A legacy directory opens as a :class:`LegacyStore` — the source
    ``repro store migrate`` reads old caches through; every other
    directory, fresh ones included, is a :class:`ColumnarStore`.
    """
    if detect_backend(root) == LegacyStore.backend:
        return LegacyStore(root)
    return ColumnarStore(root)


__all__ = [
    "COLUMN_NAMES",
    "Claim",
    "ColumnarStore",
    "JOURNAL_NAME",
    "LegacyStore",
    "ResultStore",
    "StoreError",
    "StoreQuery",
    "StoredRow",
    "append_journal_line",
    "detect_backend",
    "try_acquire",
    "family_of",
    "iter_journal",
    "iter_journal_payloads",
    "journal_path",
    "lock_path",
    "load_journal",
    "migrate_store",
    "open_store",
    "row_from_payload",
    "verify_migration",
]
