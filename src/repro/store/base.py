"""The storage interface every cache consumer stands on.

A :class:`ResultStore` persists *payloads* — the ``{"key": ..., "record":
...}`` dictionaries the content-addressed cache has always filed — and
answers three kinds of questions:

* **point lookups** by content address (:meth:`ResultStore.get`),
* **range scans** by the columns every record shares — scenario family,
  scheduler, binder, selector, the (T, P, R) constraint axes and the
  feasible flag (:meth:`ResultStore.scan` with a :class:`StoreQuery`),
* **inventory**: :meth:`ResultStore.count`, :meth:`ResultStore.keys`,
  :meth:`ResultStore.iter_payloads`.

Two backends implement it: :class:`~repro.store.columnar.ColumnarStore`,
the sharded append-then-compact columnar format built for millions of
records and the only layout the
:class:`~repro.explore.cache.ResultCache` facade (journal, stats,
in-memory layer, read/write gating) writes, and
:class:`~repro.store.legacy.LegacyStore`, the original
one-JSON-file-per-key layout old caches are read and migrated through.

:class:`StoredRow` is the scalar projection of one record — what a range
scan yields without touching the full JSON blob.  ``scan`` only
materializes record dictionaries when asked (``with_records=True``),
which is what makes "every frontier point ever computed for ``elliptic``
under ``pasap``" an indexed column read instead of N file opens.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, List, Optional, Tuple


class StoreError(RuntimeError):
    """A malformed store directory, file or query."""


#: Ordered scalar columns every backend indexes.  The name doubles as the
#: :class:`StoredRow` attribute and the ``repro store query`` output key.
COLUMN_NAMES = (
    "family",
    "scheduler",
    "binder",
    "selector",
    "latency",
    "power_budget",
    "register_budget",
    "feasible",
    "area",
    "fu_area",
    "peak_power",
    "result_latency",
    "registers",
    "backtracks",
    "elapsed",
    "cached",
    "error_type",
)


@dataclass(frozen=True)
class StoredRow:
    """The scalar (columnar) projection of one stored record.

    Attributes:
        key: Content address (64 hex chars).
        family: Graph identity — the registered benchmark name, or the
            inline CDFG's ``name`` field (``""`` when anonymous).
        scheduler: Scheduler strategy name of the task.
        binder: Binder strategy name of the task.
        selector: Module-selection policy name of the task.
        latency: The task's latency bound ``T`` (``None`` = unbounded).
        power_budget: The task's power budget ``P`` (``None`` = unbounded).
        register_budget: The task's register budget ``R`` (``None`` =
            unbounded).
        feasible: Whether synthesis succeeded under the constraints.
        area: Total datapath area (``None`` when infeasible).
        fu_area: Functional-unit area (``None`` when infeasible).
        peak_power: Peak per-cycle power of the result.
        result_latency: Cycles the result actually used (the record's
            ``latency`` field — distinct from the constraint ``T``).
        registers: Register count of the result's allocation.
        backtracks: Engine backtrack count.
        elapsed: Wall-clock seconds of the original synthesis.
        cached: The record's stored ``cached`` flag.
        error_type: Exception class name for infeasible records.
    """

    key: str
    family: str = ""
    scheduler: str = ""
    binder: str = ""
    selector: str = ""
    latency: Optional[int] = None
    power_budget: Optional[float] = None
    register_budget: Optional[int] = None
    feasible: bool = False
    area: Optional[float] = None
    fu_area: Optional[float] = None
    peak_power: Optional[float] = None
    result_latency: Optional[int] = None
    registers: Optional[int] = None
    backtracks: int = 0
    elapsed: float = 0.0
    cached: bool = False
    error_type: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (what ``repro store query`` prints)."""
        return {name: getattr(self, name) for name in ("key",) + COLUMN_NAMES}


def family_of(task: Dict[str, Any]) -> str:
    """The scenario-family column value for one task dict.

    A registered benchmark name is its own family; an inline CDFG
    contributes its ``name`` field (anonymous graphs index as ``""``).
    """
    graph = task.get("graph")
    if isinstance(graph, str):
        return graph
    if isinstance(graph, dict):
        name = graph.get("name")
        return name if isinstance(name, str) else ""
    return ""


def row_from_payload(key: str, payload: Dict[str, Any]) -> StoredRow:
    """Project one stored payload onto its indexable scalar columns.

    Tolerant of partially-populated records (every metric defaults to the
    :class:`StoredRow` default) but raises :class:`StoreError` when the
    payload has no ``record`` dict at all — that is not a record, and
    indexing it would corrupt the store's answers.
    """
    record = payload.get("record") if isinstance(payload, dict) else None
    if not isinstance(record, dict):
        raise StoreError(f"payload for {key!r} has no record dict")
    task = record.get("task")
    task = task if isinstance(task, dict) else {}

    def _opt_int(value: Any) -> Optional[int]:
        return int(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else None

    def _opt_float(value: Any) -> Optional[float]:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = float(value)
            return None if math.isnan(value) else value
        return None

    return StoredRow(
        key=key,
        family=family_of(task),
        scheduler=str(task.get("scheduler") or ""),
        binder=str(task.get("binder") or ""),
        selector=str(task.get("selector") or ""),
        latency=_opt_int(task.get("latency")),
        power_budget=_opt_float(task.get("power_budget")),
        register_budget=_opt_int(task.get("register_budget")),
        feasible=bool(record.get("feasible")),
        area=_opt_float(record.get("area")),
        fu_area=_opt_float(record.get("fu_area")),
        peak_power=_opt_float(record.get("peak_power")),
        result_latency=_opt_int(record.get("latency")),
        registers=_opt_int(record.get("registers")),
        backtracks=int(record.get("backtracks") or 0),
        elapsed=float(record.get("elapsed") or 0.0),
        cached=bool(record.get("cached")),
        error_type=(
            str(record["error_type"]) if record.get("error_type") is not None else None
        ),
    )


Range = Tuple[Optional[float], Optional[float]]


def _normalize_range(value: Any, name: str) -> Optional[Range]:
    """Accept a scalar (exact match) or a (lo, hi) pair; ``None`` passes."""
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (float(value), float(value))
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise StoreError(
            f"query {name} must be a number or a (lo, hi) pair, got {value!r}"
        ) from None
    lo = None if lo is None else float(lo)
    hi = None if hi is None else float(hi)
    if lo is not None and hi is not None and lo > hi:
        raise StoreError(f"query {name} range is inverted: ({lo}, {hi})")
    return (lo, hi)


def _in_range(value: Optional[float], bounds: Optional[Range]) -> bool:
    if bounds is None:
        return True
    if value is None:
        return False
    lo, hi = bounds
    if lo is not None and value < lo:
        return False
    if hi is not None and value > hi:
        return False
    return True


@dataclass(frozen=True)
class StoreQuery:
    """A declarative filter over the store's scalar columns.

    String columns match exactly (``None`` = any); the constraint axes
    ``latency`` (T), ``power`` (P) and ``register`` (R) accept a single
    number for an exact match or a ``(lo, hi)`` pair for an inclusive
    range, with ``None`` at either end leaving that side open.  Records
    whose constraint is *unbounded* (``None``) only match when the axis
    is unconstrained in the query.

    ``StoreQuery(family="elliptic", scheduler="pasap", power=(8, 40))``
    is "every elliptic point pasap computed with P between 8 and 40".

    ``key_prefix`` restricts the scan to content addresses starting with
    the given hex prefix.  Backends use it to *prune*: the columnar store
    skips every shard whose directory prefix is incompatible, the legacy
    store skips object files without opening them.
    """

    family: Optional[str] = None
    scheduler: Optional[str] = None
    binder: Optional[str] = None
    selector: Optional[str] = None
    feasible: Optional[bool] = None
    latency: Any = None
    power: Any = None
    register: Any = None
    key_prefix: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "latency", _normalize_range(self.latency, "latency"))
        object.__setattr__(self, "power", _normalize_range(self.power, "power"))
        object.__setattr__(self, "register", _normalize_range(self.register, "register"))
        if self.key_prefix is not None:
            if not isinstance(self.key_prefix, str):
                raise StoreError(
                    f"query key_prefix must be a hex string, got {self.key_prefix!r}"
                )
            prefix = self.key_prefix.lower()
            if not prefix or len(prefix) > 64 or set(prefix) - set("0123456789abcdef"):
                raise StoreError(
                    "query key_prefix must be 1..64 hex chars, "
                    f"got {self.key_prefix!r}"
                )
            object.__setattr__(self, "key_prefix", prefix)

    @property
    def is_empty(self) -> bool:
        """True when the query matches every record (no filter set)."""
        return all(getattr(self, f.name) is None for f in fields(self))

    def matches(self, row: StoredRow) -> bool:
        """Whether one row satisfies every filter of this query."""
        if self.key_prefix is not None and not row.key.startswith(self.key_prefix):
            return False
        if self.family is not None and row.family != self.family:
            return False
        if self.scheduler is not None and row.scheduler != self.scheduler:
            return False
        if self.binder is not None and row.binder != self.binder:
            return False
        if self.selector is not None and row.selector != self.selector:
            return False
        if self.feasible is not None and row.feasible != self.feasible:
            return False
        return (
            _in_range(row.latency, self.latency)
            and _in_range(row.power_budget, self.power)
            and _in_range(row.register_budget, self.register)
        )


class ResultStore(ABC):
    """Abstract persistence backend for content-addressed result payloads.

    Implementations must be safe for concurrent *processes* writing to one
    directory (each :meth:`put` lands atomically, readers never observe a
    torn record) and must treat corrupt data as absent rather than fatal —
    the consumers above recompute on a miss.
    """

    #: Registry-style backend name (``"legacy"`` / ``"columnar"``).
    backend = "abstract"

    def __init__(self, root) -> None:
        from pathlib import Path

        self.root = Path(root).expanduser()

    # ------------------------------------------------------------------ #
    # Point access
    # ------------------------------------------------------------------ #
    @abstractmethod
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key`` (``{"key":..., "record":...}``), or None."""

    @abstractmethod
    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Persist ``payload`` under ``key`` (overwrite-by-address is fine:
        the address is a content hash, so twins carry identical records)."""

    # ------------------------------------------------------------------ #
    # Scans
    # ------------------------------------------------------------------ #
    @abstractmethod
    def scan(
        self,
        query: Optional[StoreQuery] = None,
        *,
        with_records: bool = False,
    ) -> Iterator[Any]:
        """Yield :class:`StoredRow` for every record matching ``query``.

        With ``with_records=True`` yields ``(row, record_dict)`` pairs —
        the only mode that deserializes full records, and only for the
        rows that matched.
        """

    def keys(self) -> List[str]:
        """Every content address in the store (unordered)."""
        return [row.key for row in self.scan()]

    def iter_payloads(self) -> Iterator[Dict[str, Any]]:
        """Yield every stored payload (the migration feed)."""
        for row, record in self.scan(with_records=True):
            yield {"key": row.key, "record": record}

    # ------------------------------------------------------------------ #
    # Inventory / maintenance
    # ------------------------------------------------------------------ #
    @abstractmethod
    def count(self) -> int:
        """Number of distinct records stored."""

    def compact(self) -> Dict[str, Any]:
        """Merge loose data into its densest on-disk form; return counters.

        A no-op for backends with nothing to compact.
        """
        return {"backend": self.backend, "compacted": 0}

    @abstractmethod
    def store_stats(self) -> Dict[str, Any]:
        """Backend-specific inventory (file/segment/shard counts, bytes)."""
