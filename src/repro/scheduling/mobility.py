"""Power-feasible scheduling windows derived from pasap/palap.

For every operation the pair ``(pasap_start, palap_start)`` bounds the
cycles in which it can legally start without violating precedence, the
latency bound or (heuristically) the power budget.  The combined synthesis
engine consumes these windows when building the time-extended
compatibility graph and when checking whether a tentative binding decision
leaves the remaining operations schedulable.

Because pasap and palap are heuristics (the paper is explicit about this),
the window is itself heuristic: a positive-width window does not *prove*
feasibility of every interior start time, and after a binding decision the
windows must be recomputed with the bound operations locked.  A
negative-width window, however, is a reliable infeasibility signal and
triggers the engine's backtrack-and-lock rule.

Implementation notes
--------------------
* Both pasap and palap place a locked operation at its lock, so a
  :class:`WindowSet` is just the two start maps; :class:`Window` objects
  are built only when a caller indexes one.
* The engine recomputes every window after each decision, with the
  locked profiles carried over by a :class:`WindowCache`, and checks them
  with :func:`feasible_windows` (which :func:`windows_feasible` wraps).
  pasap and palap themselves count each operation's unscheduled
  predecessors to form their waves (see :mod:`repro.scheduling.pasap`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Dict, Mapping, Optional

from ..ir.cdfg import CDFG
from .constraints import PowerConstraint, TimeConstraint
from .palap import palap_core
from .pasap import LockedProfileCache, PowerInfeasibleError, pasap_core


@dataclass(frozen=True)
class Window:
    """Earliest/latest power-feasible start cycle of one operation."""

    earliest: int
    latest: int

    @property
    def width(self) -> int:
        """Slack (latest - earliest); negative means infeasible."""
        return self.latest - self.earliest

    @property
    def feasible(self) -> bool:
        return self.latest >= self.earliest

    def contains(self, cycle: int) -> bool:
        return self.earliest <= cycle <= self.latest

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.earliest}, {self.latest}]"


class WindowSet:
    """pasap/palap windows for every operation of a CDFG.

    A window is ``(pasap_starts[op], palap_starts[op])``: pasap and palap
    both place a locked operation at its lock, so no per-operation
    :class:`Window` objects are built up front.  Indexing builds one on
    demand, and the :attr:`windows` mapping is built on first access.
    """

    def __init__(self, pasap_starts: Dict[str, int], palap_starts: Dict[str, int]) -> None:
        self.pasap_starts = pasap_starts
        self.palap_starts = palap_starts
        self._windows: Optional[Dict[str, Window]] = None

    @property
    def windows(self) -> Dict[str, Window]:
        """Operation name → :class:`Window` (built once, on first access)."""
        if self._windows is None:
            latest = self.palap_starts
            self._windows = {
                name: Window(earliest, latest[name])
                for name, earliest in self.pasap_starts.items()
            }
        return self._windows

    def __getitem__(self, op_name: str) -> Window:
        return Window(self.pasap_starts[op_name], self.palap_starts[op_name])

    def __contains__(self, op_name: str) -> bool:
        return op_name in self.pasap_starts

    def __iter__(self):
        return iter(self.pasap_starts)

    @property
    def all_feasible(self) -> bool:
        """True if every operation has a non-negative-width window."""
        latest = self.palap_starts
        return all(latest[n] >= earliest for n, earliest in self.pasap_starts.items())

    def infeasible_operations(self) -> list:
        """Names of operations whose window collapsed (latest < earliest)."""
        latest = self.palap_starts
        return sorted(n for n, earliest in self.pasap_starts.items() if latest[n] < earliest)

    def total_mobility(self) -> int:
        """Sum of window widths (a coarse measure of remaining freedom)."""
        latest = self.palap_starts
        return sum(max(0, latest[n] - earliest) for n, earliest in self.pasap_starts.items())


class WindowCache:
    """Reusable state for repeated window computations over one graph.

    The synthesis engine recomputes pasap/palap windows after every
    committed binding decision with a locked set that grows by exactly
    one operation.  The pasap/palap stretching itself is order-sensitive
    (each placement depends on the power profile of everything placed
    before it), so the *remaining* operations must genuinely be
    rescheduled — but the committed part of the profile can be carried
    over incrementally instead of being rebuilt from all locked
    operations on every call.  Both directions (forward pasap, reversed
    palap) keep their own :class:`~repro.scheduling.pasap.LockedProfileCache`.

    The caches replay identical float additions in an identical order,
    so windows computed with a cache are bit-for-bit those computed
    without one (the golden engine tests pin this).
    """

    def __init__(self) -> None:
        self.forward = LockedProfileCache()
        self.backward = LockedProfileCache()


def compute_windows(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    time: TimeConstraint,
    locked: Optional[Mapping[str, int]] = None,
    cache: Optional[WindowCache] = None,
) -> WindowSet:
    """Compute the power-feasible window of every operation.

    Args:
        cdfg: Graph under synthesis.
        delays: Per-operation latency.
        powers: Per-operation per-cycle power.
        power: Power budget ``P``.
        time: Latency bound ``T``.
        locked: Start times already fixed by prior binding decisions;
            locked operations get a zero-width window at their lock point.
        cache: Optional :class:`WindowCache` carrying the locked power
            profiles over from a previous call with a smaller locked set
            (the engine's greedy loop); never changes the result.

    Raises:
        PowerInfeasibleError: propagated from pasap/palap when even the
            heuristic stretching cannot place some operation (e.g. a
            single operation's power exceeds ``P``, or locked operations
            already exceed ``T``).
    """
    locked = locked if locked is not None else {}
    pasap_starts = pasap_core(
        cdfg,
        delays,
        powers,
        power,
        locked=locked,
        locked_base=cache.forward if cache is not None else None,
    )
    palap_starts = palap_core(
        cdfg,
        delays,
        powers,
        power,
        time.latency,
        locked=locked,
        locked_base=cache.backward if cache is not None else None,
    )
    return WindowSet(pasap_starts, palap_starts)


def feasible_windows(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    time: TimeConstraint,
    locked: Optional[Mapping[str, int]] = None,
    cache: Optional[WindowCache] = None,
) -> WindowSet:
    """:func:`compute_windows`, checked the way the synthesis engine needs.

    The synthesis engine calls this after every committed binding
    decision; a failure triggers its backtrack-and-lock rule.

    Raises:
        PowerInfeasibleError: when the windows cannot be computed, some
            window is empty, or the pasap schedule (which the power
            budget may stretch) finishes after the latency bound ``T``.
    """
    window_set = compute_windows(cdfg, delays, powers, power, time, locked=locked, cache=cache)
    if not window_set.all_feasible:
        raise PowerInfeasibleError(
            f"infeasible windows for operations {window_set.infeasible_operations()}"
        )
    pasap_starts = window_set.pasap_starts
    horizon = (
        max(map(add, pasap_starts.values(), map(delays.__getitem__, pasap_starts)))
        if pasap_starts
        else 0
    )
    if horizon > time.latency:
        raise PowerInfeasibleError(
            f"power-feasible schedule needs {horizon} cycles, exceeding "
            f"the latency bound {time.latency}"
        )
    return window_set


def windows_feasible(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    time: TimeConstraint,
    locked: Optional[Mapping[str, int]] = None,
) -> bool:
    """True when :func:`feasible_windows` succeeds: every window is
    non-empty and the pasap schedule meets the latency bound."""
    try:
        feasible_windows(cdfg, delays, powers, power, time, locked=locked)
    except PowerInfeasibleError:
        return False
    return True
