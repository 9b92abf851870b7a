"""Backend migration: move a result store between layouts, verifiably.

``repro store migrate`` (and the :func:`migrate_store` API under it)
rewrites every stored payload from a source directory — in practice an
old legacy cache — into a fresh columnar destination, then — because a cache that silently dropped
or mutated records is worse than no cache — :func:`verify_migration`
re-reads both sides and asserts the record dictionaries are
**bit-identical** per content address.

The journal is part of the store's semantics (it is the crash-replay
trail), so migration replays it too: records that exist only in the
source journal (an object write that crashed before its journal line has
the reverse shape — journal lines for keys whose object was lost) are
recovered via :func:`~repro.store.journal.iter_journal_payloads`, and
the destination receives a journal whose lines cover every migrated
record, torn tails of the source skipped as always.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .base import ResultStore, StoreError
from .journal import JOURNAL_NAME, append_journal_line, iter_journal_payloads


def migrate_store(source: "ResultStore", destination: "ResultStore") -> Dict[str, Any]:
    """Copy every record (objects first, then journal-only strays) across.

    Returns counters: ``records`` copied from the source's primary
    storage, ``replayed`` recovered only from its journal, ``journaled``
    lines written to the destination journal.
    """
    if Path(source.root) == Path(destination.root):
        raise StoreError("migration source and destination must be different directories")
    copied = 0
    seen = set()
    for payload in source.iter_payloads():
        key = payload["key"]
        destination.put(key, payload)
        append_journal_line(destination.root, payload)
        seen.add(key)
        copied += 1
    replayed = 0
    for key, record in iter_journal_payloads(Path(source.root) / JOURNAL_NAME):
        if key in seen:
            continue
        payload = {"key": key, "record": record}
        destination.put(key, payload)
        append_journal_line(destination.root, payload)
        seen.add(key)
        replayed += 1
    if hasattr(destination, "compact"):
        destination.compact()
    return {
        "source": str(source.root),
        "destination": str(destination.root),
        "source_backend": source.backend,
        "destination_backend": destination.backend,
        "records": copied,
        "replayed": replayed,
        "journaled": copied + replayed,
    }


def verify_migration(
    source: "ResultStore", destination: "ResultStore"
) -> Dict[str, Any]:
    """Assert both stores answer identically for every source record.

    Compares the canonical JSON of each record dict (bit-identical
    modulo key ordering, which JSON round-trips never preserve anyway)
    and the key inventories.  Raises :class:`StoreError` on the first
    divergence; returns ``{"records": n}`` when everything matches.
    """

    def canonical(payload: Optional[Dict[str, Any]]) -> Optional[str]:
        if payload is None:
            return None
        return json.dumps(payload.get("record"), sort_keys=True, separators=(",", ":"))

    checked = 0
    for payload in source.iter_payloads():
        key = payload["key"]
        other = destination.get(key)
        if other is None:
            raise StoreError(f"migration lost record {key}")
        if canonical(payload) != canonical(other):
            raise StoreError(f"migration changed record {key}")
        checked += 1
    extra = set(destination.keys()) - {row.key for row in source.scan()} - {
        key for key, _ in iter_journal_payloads(Path(source.root) / JOURNAL_NAME)
    }
    if extra:
        raise StoreError(
            f"destination has {len(extra)} record(s) the source never stored"
        )
    return {"records": checked}
