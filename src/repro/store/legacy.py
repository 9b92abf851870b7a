"""The original one-JSON-file-per-key store, behind the common interface.

This is the layout every cache directory used before the columnar
backend existed — ``<root>/objects/<key[:2]>/<key>.json``, one atomically
written object per content address.  No cache writes it any more: it is
kept so old cache directories can still be inspected (``repro store
stats``/``query``) and converted (``repro store migrate``), and so the
columnar backend has an exact semantic baseline to be measured against
(the store parity tests and ``benchmarks/bench_store_scale.py`` write
it through :meth:`LegacyStore.put`).

Range scans exist here too, honestly: a :meth:`LegacyStore.scan` opens
and parses every object file and filters in Python.  That is the cost
curve the columnar backend's indexed scans are benchmarked against in
``benchmarks/bench_store_scale.py``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from .base import ResultStore, StoreError, StoreQuery, row_from_payload

#: The directory whose presence marks a legacy cache.
OBJECTS_DIR = "objects"


class LegacyStore(ResultStore):
    """One-JSON-object-per-key :class:`ResultStore` backend."""

    backend = "legacy"

    def object_path(self, key: str) -> Path:
        """Where one content address is filed (``objects/<k[:2]>/<k>.json``)."""
        return self.root / OBJECTS_DIR / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Point access
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            payload = json.loads(self.object_path(key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("record"), dict
        ):
            return None
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        path = self.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload, indent=1, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
                handle.write("\n")
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------ #
    # Scans / inventory
    # ------------------------------------------------------------------ #
    def _object_files(self) -> Iterator[Path]:
        objects = self.root / OBJECTS_DIR
        if not objects.is_dir():
            return
        yield from objects.glob("*/*.json")

    def scan(
        self,
        query: Optional[StoreQuery] = None,
        *,
        with_records: bool = False,
    ) -> Iterator[Any]:
        query = query or StoreQuery()
        for path in self._object_files():
            key = path.stem
            if query.key_prefix is not None and not key.startswith(query.key_prefix):
                continue  # pruned by filename — the object is never opened
            try:
                payload = json.loads(path.read_text())
                row = row_from_payload(key, payload)
            except (OSError, ValueError, StoreError):
                continue  # corrupt objects are absent, not fatal
            if query.matches(row):
                if with_records:
                    yield row, payload["record"]
                else:
                    yield row

    def count(self) -> int:
        return sum(1 for _ in self._object_files())

    def store_stats(self) -> Dict[str, Any]:
        files = 0
        total_bytes = 0
        for path in self._object_files():
            files += 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
        return {
            "backend": self.backend,
            "root": str(self.root),
            "records": files,
            "bytes": total_bytes,
        }
