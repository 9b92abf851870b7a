"""Content-addressed, on-disk caching of synthesis results.

A :class:`ResultCache` stores one :class:`~repro.api.batch.TaskResult`
per *content address* — the SHA-256 of the task's canonical spec (see
:meth:`repro.api.task.SynthesisTask.cache_key`).  Because the address is
derived from what the task *means* (graph structure, library modules,
constraints, strategies, options) rather than how it is spelled, the same
(graph, library, T, P) point hits the cache whether it was issued by a
fixed-grid sweep, the adaptive frontier refiner, a bisection probe inside
:func:`~repro.synthesis.explore.minimum_feasible_power`, a different CLI
invocation, or a worker process of a parallel batch.

Since the store refactor this class is a thin policy facade — read
gating, the journal, lifetime stats, the in-memory layer — over a
:class:`~repro.store.ColumnarStore`: sharded append-then-compact files
built for millions of records, with O(1) counting and indexed range
scans (``repro store query``).  Every consumer — ``run_task`` /
``run_batch``, the sweep refiner, the serving layer, fuzz resume, the
CLI — opens the directory it is given and writes that one format.  A
directory in the old one-JSON-file-per-key ``legacy`` layout is refused
with :class:`~repro.store.StoreError`; ``repro store migrate`` converts
it.

The journal (``<root>/journal.jsonl``): every *computed* record of a key
not yet filed appends one line (cache hits are not re-journaled, nor is
a re-computation of a filed key) as a single ``O_APPEND`` write, torn
tails are tolerated, and a killed grid restarts without rework by
replaying the same directory.

Only scalar metrics are cached — the heavyweight
:class:`~repro.synthesis.result.SynthesisResult` object is dropped, just
as it is for parallel workers.  Records loaded from the cache therefore
have ``result=None`` and ``cached=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..api.batch import TaskResult
from ..api.task import SynthesisTask
from ..store import (
    JOURNAL_NAME,
    ColumnarStore,
    append_journal_line,
    iter_journal,
    load_journal,
)

__all__ = [
    "CacheStats",
    "JOURNAL_NAME",
    "ResultCache",
    "iter_journal",
    "load_journal",
]


@dataclass
class CacheStats:
    """Counters for one cache instance's lifetime.

    Attributes:
        hits: Lookups answered from the cache (memory or disk).
        misses: Lookups that found nothing (the caller then synthesizes).
        writes: Records stored.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class ResultCache:
    """Content-addressed cache of :class:`TaskResult` records.

    Args:
        root: Cache directory (created on first write).
        read: Consult the cache on :meth:`get`.  ``read=False`` makes a
            write-only cache that records results for later runs without
            ever short-circuiting the current one (the CLI's plain
            ``--cache-dir`` without ``--resume``).  Computed records
            are always stored, and journaled to ``journal.jsonl``.

    Raises:
        StoreError: ``root`` holds a legacy cache (migrate it first).

    An in-memory layer fronts the disk so repeated lookups of the same
    point within one process (e.g. bisection probes) cost one file read.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        read: bool = True,
    ) -> None:
        self.root = Path(root).expanduser()
        self.read = read
        self.stats = CacheStats()
        self.store = ColumnarStore(self.root)
        self._memory: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #
    def key_for(self, task: SynthesisTask) -> str:
        return task.cache_key()

    @property
    def journal_path(self) -> Path:
        return self.root / JOURNAL_NAME

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def get(self, task: SynthesisTask) -> Optional[TaskResult]:
        """The cached record for ``task``, or ``None``.

        Returned records carry ``cached=True``, ``result=None`` (only
        scalar metrics are stored) and the *caller's* ``task`` — the
        content address deliberately ignores spelling differences and the
        label, so the stored spec may be a differently-spelled twin and
        must not leak into the caller's reports.  Corrupt or unreadable
        stored data counts as a miss — the point is simply recomputed.
        """
        if not self.read:
            return None
        record = self.peek(task)
        if record is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return record

    def peek(self, task: SynthesisTask) -> Optional[TaskResult]:
        """:meth:`get` without touching :attr:`stats`.

        For callers that count a job's one lookup themselves once its
        outcome is known — the serving layer looks a task up at
        admission and again at dequeue, then folds the job's single
        hit or miss into these counters when it finishes.
        """
        if not self.read:
            return None
        key = self.key_for(task)
        payload = self._memory.get(key)
        if payload is None:
            payload = self.store.get(key)
            if payload is None:
                return None
            self._memory[key] = payload
        try:
            record = TaskResult.from_dict(dict(payload["record"]))
        except (TypeError, ValueError, KeyError):
            return None
        record.cached = True
        record.result = None
        record.task = task
        return record

    def put(self, task: SynthesisTask, record: TaskResult) -> str:
        """Store ``record`` under the task's content address; return the key.

        Infeasible records are cached too — knowing a (T, P) point is
        below the feasibility frontier is exactly as reusable as knowing
        its area.  A key the store already holds is left as filed:
        nothing is written, journaled or counted.
        """
        key = self.key_for(task)
        if self.store.contains(key):
            return key
        payload = {"key": key, "record": record.to_dict()}
        self.store.put(key, payload)
        append_journal_line(self.root, payload)
        self._memory[key] = payload
        self.stats.writes += 1
        return key

    def record_for_key(self, key: str) -> Optional[Dict[str, Any]]:
        """The raw stored record dict for a content address, or ``None``.

        Unlike :meth:`get` this looks up by the *key itself* (no task in
        hand to rebind), honours neither the ``read`` flag nor the stats
        counters, and returns the plain payload dict — it exists for the
        serving layer's ``GET /results/<key>`` endpoint, which addresses
        results the way the cache files them.  Disk reads memoize into
        the in-memory layer, so a client polling one key parses its
        record once, not once per poll.
        """
        payload = self._memory.get(key)
        if payload is None:
            payload = self.store.get(key)
            if payload is None:
                return None
            self._memory[key] = payload
        record = payload.get("record") if isinstance(payload, dict) else None
        if not isinstance(record, dict):
            return None
        return dict(record)

    def __len__(self) -> int:
        """Number of records on disk (not just in this process's memory).

        O(1): the store maintains its count.
        """
        return self.store.count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.root)!r}, read={self.read}, {self.stats})"
