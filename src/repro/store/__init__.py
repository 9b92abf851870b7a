"""repro.store — the storage subsystem behind every cache consumer.

One interface, two backends:

* :class:`~repro.store.base.ResultStore` — the contract: content-address
  point lookups, columnar range scans (:class:`~repro.store.base.StoreQuery`
  over family / scheduler / binder / selector / T / P / R / feasibility),
  inventory and compaction.
* :class:`~repro.store.legacy.LegacyStore` — the original
  one-JSON-file-per-key layout, unchanged on disk.
* :class:`~repro.store.columnar.ColumnarStore` — the scale backend:
  sharded CRC-framed append segments (single ``O_APPEND`` write per
  record, torn tails repaired), merged by :meth:`compact` into sorted,
  indexed column files that answer range queries with partial reads.

:mod:`~repro.store.claims` adds the cross-process single-flight
protocol on top of either backend: per-content-address claim files
(atomic link-into-place, dead-pid/lease staleness, serialized breaking)
that let many processes share one store directory without ever
synthesizing the same task twice.

:func:`open_store` picks the backend for a directory — an existing
layout always wins over the caller's preference, so ``--cache-dir``
autodetects — and :func:`~repro.store.migrate.migrate_store` /
:func:`~repro.store.migrate.verify_migration` move a cache between
backends with bit-identical records or a loud failure.

The :class:`~repro.explore.cache.ResultCache` facade adds the journal,
stats counters, the in-memory layer and read/write gating on top; almost
every caller should keep going through it.
"""

from __future__ import annotations

import json
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
from .claims import (
    Claim,
    ClaimError,
    ClaimInfo,
    break_stale_claims,
    claim_path,
    holder,
    try_acquire,
)
from .columnar import MANIFEST_NAME, ColumnarStore
from .journal import (
    JOURNAL_NAME,
    append_journal_line,
    iter_journal,
    iter_journal_payloads,
    journal_path,
    load_journal,
)
from .legacy import LegacyStore
from .migrate import migrate_store, verify_migration

#: Registered backend constructors by name.
BACKENDS = {
    LegacyStore.backend: LegacyStore,
    ColumnarStore.backend: ColumnarStore,
}


def detect_backend(root: Union[str, Path]) -> Optional[str]:
    """The backend an existing directory was written by, or ``None``.

    A ``store.json`` manifest names its backend explicitly; an
    ``objects/`` tree is the legacy layout; anything else (including a
    directory that does not exist yet) is undetermined.
    """
    root = Path(root).expanduser()
    manifest = root / MANIFEST_NAME
    if manifest.exists():
        try:
            declared = json.loads(manifest.read_text()).get("backend")
        except (OSError, ValueError) as exc:
            raise StoreError(f"corrupt store manifest at {manifest}: {exc}")
        if declared not in BACKENDS:
            raise StoreError(f"{manifest} names unknown backend {declared!r}")
        return declared
    if (root / "objects").is_dir():
        return LegacyStore.backend
    return None


def open_store(
    root: Union[str, Path], *, backend: Optional[str] = None
) -> ResultStore:
    """Open (or prepare) the store for a directory.

    An existing on-disk layout always decides the backend; asking for a
    different one raises instead of silently splitting the store across
    two formats (migrate instead).  For a fresh directory, ``backend``
    picks the layout (default ``legacy``, today's format).
    """
    detected = detect_backend(root)
    if backend is not None and backend not in BACKENDS:
        raise StoreError(
            f"unknown store backend {backend!r}; choose from {sorted(BACKENDS)}"
        )
    if detected is not None and backend is not None and backend != detected:
        raise StoreError(
            f"{root} already holds a {detected!r} store; refusing to open it as "
            f"{backend!r} — use 'repro store migrate' to convert it"
        )
    chosen = detected or backend or LegacyStore.backend
    return BACKENDS[chosen](root)


__all__ = [
    "BACKENDS",
    "COLUMN_NAMES",
    "Claim",
    "ClaimError",
    "ClaimInfo",
    "ColumnarStore",
    "JOURNAL_NAME",
    "LegacyStore",
    "ResultStore",
    "StoreError",
    "StoreQuery",
    "StoredRow",
    "append_journal_line",
    "break_stale_claims",
    "claim_path",
    "detect_backend",
    "holder",
    "try_acquire",
    "family_of",
    "iter_journal",
    "iter_journal_payloads",
    "journal_path",
    "load_journal",
    "migrate_store",
    "open_store",
    "row_from_payload",
    "verify_migration",
]
