"""Power-constrained ASAP scheduling (``pasap``) — Section 2 of the paper.

The algorithm "stretches" the classical ASAP schedule so that the total
power drawn in any clock cycle never exceeds the budget ``P``:

    Initialize: schedule the source start-time to zero and set the
    execution offset ``o_i`` to zero for all operators.

    step 1: pick an unscheduled operator ``v_i``
    step 2: if ``v_i`` has unscheduled predecessors, go to step 4
    step 3: if there is power available in the execution interval
            ``[(t_i + o_i) .. (t_i + o_i + d_i)]``, where ``d_i`` is the
            execution delay of ``v_i`` and ``t_i = max{t_j + d_j}`` over
            all predecessors ``v_j -> v_i``, schedule operation ``i`` at
            time ``t_i (+ o_i)``; otherwise increase ``o_i`` by one.
    step 4: if unscheduled operators remain, go to step 1.

Implementation notes
---------------------
* Operations are visited in topological *waves*: a wave is every
  unscheduled operator whose predecessors are all scheduled, in the
  graph's topological order, and within a wave the order is the priority
  function, by default *largest power first, then longest delay, then
  name* — greedy packing of the heavy operations first reduces the
  stretching needed later and is the natural reading of the paper's
  "pick an unscheduled operator".  Waves come from per-call counters of
  unscheduled predecessors: the next wave is the successors whose count
  reaches zero, put back in topological order, so no pass rescans the
  unscheduled operators.
* Step 3's "increase ``o_i`` by one" is taken in jumps: when some cycle of
  the execution interval is over budget, every offset up to that cycle
  would overlap it, so the search resumes just past it.  The start found
  is the one the unit steps would find.
* Already-bound operations can be *locked* at fixed start times; their
  power is pre-committed to the profile.  The combined synthesis engine
  relies on this to recompute pasap windows after every binding decision
  and to implement the paper's backtrack-and-lock rule.
* When a single operation's power already exceeds the budget the schedule
  is infeasible; :class:`PowerInfeasibleError` is raised.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..ir.cdfg import CDFG
from ..library.library import FULibrary
from ..library.selection import (
    MinPowerSelection,
    Selection,
    selection_delays,
    selection_powers,
)
from .constraints import PowerConstraint
from .schedule import Schedule, add_to_profile


class PowerInfeasibleError(Exception):
    """Raised when no start time can satisfy the power constraint."""


#: Priority function: maps (op name, delay, power) to a sortable key.
PriorityFn = Callable[[str, int, float], Tuple]


def default_priority(name: str, delay: int, power: float) -> Tuple:
    """Schedule power-hungry, long operations first (ties by name)."""
    return (-power, -delay, name)


def pasap_schedule(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    locked: Optional[Mapping[str, int]] = None,
    max_horizon: Optional[int] = None,
    priority: PriorityFn = default_priority,
    label: str = "pasap",
) -> Schedule:
    """Power-constrained ASAP schedule.

    Args:
        cdfg: Graph to schedule.
        delays: Per-operation latency in cycles.
        powers: Per-operation per-cycle power.
        power: The per-cycle power budget ``P``.
        locked: Start times of operations that are already fixed (their
            power is committed to the profile before scheduling the rest).
        max_horizon: Safety bound on how far an operation may be delayed;
            defaults to a generous bound derived from the total work.
        priority: Ready-operation ordering (see :func:`default_priority`).
        label: Label stored on the resulting schedule.

    Returns:
        A schedule that respects precedence and the power budget.

    Raises:
        PowerInfeasibleError: if some operation's own power exceeds the
            budget, or the horizon safety bound is hit.
    """
    start = pasap_core(cdfg, delays, powers, power, locked, max_horizon, priority)
    return Schedule(
        cdfg=cdfg,
        start_times=start,
        delays=dict(delays),
        powers=dict(powers),
        label=label,
        metadata={"power_budget": power.max_power},
    )


def pasap_core(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    locked: Optional[Mapping[str, int]] = None,
    max_horizon: Optional[int] = None,
    priority: PriorityFn = default_priority,
    locked_base: Optional["LockedProfileCache"] = None,
) -> Dict[str, int]:
    """The pasap stretching loop, returning only the start-time map.

    This is the hot path of the synthesis engine's window recomputation
    (called twice per committed binding decision, once forward and once on
    the reversed graph for palap); it skips the :class:`Schedule`
    construction — and its defensive dict copies and validation — that
    :func:`pasap_schedule` layers on top for external callers.  The
    engine recomputes from scratch after every decision: a placement
    reads the profile of everything placed before it, and one more lock
    changes the waves, so updating only the moved operation's cone would
    not give the same start times.

    ``locked_base`` optionally carries the power profile of the locked
    operations over from the previous engine iteration: the engine's
    locked set only ever *grows* by the operation it just committed, so
    the profile can be extended by the delta instead of being rebuilt
    from every locked operation each time.  The cache replays the same
    additions in the same order, so the profile is float-identical to a
    fresh build (a mismatched or shrunken locked set falls back to the
    full rebuild).
    """
    locked = locked if locked is not None else {}
    schedulable = cdfg.schedulable_operations()

    if max_horizon is None:
        total_cycles = sum(map(delays.__getitem__, cdfg.operation_names()))
        max_horizon = max(total_cycles * 4 + 16, 64)

    bounded = not power.is_unbounded
    limit = power.max_power + power.tolerance
    # Single-operation feasibility: an operation drawing more than P in a
    # cycle can never be placed.  One max() decides; the loop only names
    # the first offender.
    if bounded and schedulable and max(map(powers.__getitem__, schedulable)) > limit:
        for name in schedulable:
            if not power.allows(powers[name]):
                raise PowerInfeasibleError(
                    f"operation {name!r} draws {powers[name]:.3f} per cycle, "
                    f"exceeding the budget {power.max_power:.3f}"
                )

    # Commit locked operations first (incrementally when a cache is given).
    if locked_base is not None:
        profile, start = locked_base.profile_for(cdfg, delays, powers, locked)
    else:
        profile, start = _committed_locked(cdfg, delays, powers, locked)

    # Process in topological waves; inside a wave, order by priority.  A
    # wave is every unplaced operation whose predecessors are all placed,
    # in topological order: count each operation's unplaced predecessors
    # once, and the next wave is the successors whose count drops to zero.
    predecessors = cdfg.predecessors
    successors = cdfg.successors
    virtual = cdfg.virtual_operations()
    position = cdfg.topological_positions()
    pending: Dict[str, int] = {}
    ready: List[str] = []
    for name in cdfg.topological_order():
        if name in start:
            continue
        count = 0
        for pred in predecessors(name):
            if pred not in start:
                count += 1
        pending[name] = count
        if not count:
            ready.append(name)
    unplaced = len(pending)

    while ready:
        if len(ready) > 1:
            ready.sort(key=lambda n: priority(n, delays[n], powers[n]))
        following: List[str] = []
        for name in ready:
            at = 0
            for pred in predecessors(name):
                finish = start[pred] + delays[pred]
                if finish > at:
                    at = finish
            op_power = powers[name]
            if bounded and op_power != 0.0 and name not in virtual:
                op_delay = delays[name]
                while True:
                    end = at + op_delay
                    if end > len(profile):
                        profile.extend([0.0] * (end - len(profile)))
                    # Every start up to a cycle over budget overlaps that
                    # cycle, so resume just past the last one in the
                    # interval.
                    for cycle in range(end - 1, at - 1, -1):
                        if profile[cycle] + op_power > limit:
                            at = cycle + 1
                            break
                    else:
                        break
                    if at > max_horizon:
                        raise PowerInfeasibleError(
                            f"operation {name!r} cannot be placed within the "
                            f"horizon {max_horizon} under budget {power.max_power:.3f}"
                        )
                for cycle in range(at, at + op_delay):
                    profile[cycle] += op_power
            start[name] = at
            for succ in successors(name):
                left = pending.get(succ)
                if left is not None:
                    left -= 1
                    pending[succ] = left
                    if not left:
                        following.append(succ)
        unplaced -= len(ready)
        if len(following) > 1:
            following.sort(key=position.__getitem__)
        ready = following

    if unplaced:
        # Should not happen on a DAG; defensive.
        remaining = [n for n in cdfg.topological_order() if n not in start]
        raise PowerInfeasibleError(
            f"no ready operations among {remaining!r}; dependence deadlock"
        )
    return start


def _committed_locked(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    locked: Mapping[str, int],
) -> Tuple[List[float], Dict[str, int]]:
    """Profile and start map with every locked operation committed."""
    profile: List[float] = []
    start: Dict[str, int] = {}
    for name, fixed_start in locked.items():
        if name not in cdfg:
            continue
        start[name] = fixed_start
        add_to_profile(profile, fixed_start, delays[name], powers[name])
    return profile, start


class LockedProfileCache:
    """Incrementally maintained power profile of the locked operations.

    The synthesis engine locks exactly one more operation per committed
    decision, so successive window recomputations share all but one entry
    of their locked set.  This cache keeps the previous locked profile
    and extends it by the delta — committing the new entries in the same
    ``dict`` insertion order a fresh build would use, which keeps the
    floating-point profile identical bit for bit.

    Whenever the new locked set is not a superset of the cached one, or a
    cached operation changed its start/delay/power (e.g. after the
    engine's backtrack-and-lock rollback), the cache rebuilds from
    scratch, so correctness never depends on the engine's call pattern.
    The signature check compares whole lists (start, delay and power per
    cached operation), which runs in C rather than as a per-operation
    Python loop.
    """

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._profile: List[float] = []
        self._start: Dict[str, int] = {}
        # Locked keys in the iteration order they were committed with;
        # float addition is order-sensitive, so reuse requires the new
        # locked mapping to iterate with the cached order as a prefix.
        self._order: List[str] = []
        # The committed operations (those in the graph) and the start,
        # delay and power each was committed with, position by position.
        self._names: List[str] = []
        self._starts: List[int] = []
        self._delays: List[int] = []
        self._powers: List[float] = []

    def _reusable(
        self,
        names: List[str],
        delays: Mapping[str, int],
        powers: Mapping[str, float],
        locked: Mapping[str, int],
    ) -> bool:
        cached = self._names
        return (
            len(names) >= len(self._order)
            and names[: len(self._order)] == self._order
            and list(map(locked.__getitem__, cached)) == self._starts
            and list(map(delays.__getitem__, cached)) == self._delays
            and list(map(powers.__getitem__, cached)) == self._powers
        )

    def profile_for(
        self,
        cdfg: CDFG,
        delays: Mapping[str, int],
        powers: Mapping[str, float],
        locked: Mapping[str, int],
    ) -> Tuple[List[float], Dict[str, int]]:
        names = list(locked)
        if not self._reusable(names, delays, powers, locked):
            self._reset()
        for name in names[len(self._order) :]:
            self._order.append(name)
            if name not in cdfg:
                continue
            fixed_start = locked[name]
            self._start[name] = fixed_start
            add_to_profile(self._profile, fixed_start, delays[name], powers[name])
            self._names.append(name)
            self._starts.append(fixed_start)
            self._delays.append(delays[name])
            self._powers.append(powers[name])
        return list(self._profile), dict(self._start)


def pasap_schedule_with_library(
    cdfg: CDFG,
    library: FULibrary,
    power: PowerConstraint,
    selection: Optional[Selection] = None,
    locked: Optional[Mapping[str, int]] = None,
    label: str = "pasap",
) -> Schedule:
    """pasap using delays/powers from a library module selection."""
    if selection is None:
        selection = MinPowerSelection().select(cdfg, library)
    delays = selection_delays(selection, cdfg)
    powers = selection_powers(selection, cdfg)
    return pasap_schedule(cdfg, delays, powers, power, locked=locked, label=label)


def pasap_start_times(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    locked: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Convenience wrapper returning only the start-time map."""
    return pasap_schedule(cdfg, delays, powers, power, locked=locked).start_times
