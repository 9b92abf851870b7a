"""Force-directed scheduling (Paulin & Knight) — time-constrained baseline.

Force-directed scheduling (FDS) balances the expected number of
simultaneously active operations of each type across the latency budget.
It is the classical *time-constrained* scheduler used as step one of the
two-step power-management baselines the paper contrasts itself with
(first meet the deadline, then fix the power profile).

The implementation follows the textbook formulation:

1. compute ASAP/ALAP windows under the latency bound,
2. build per-type *distribution graphs*: for each cycle, the sum over
   operations of ``1 / window width`` restricted to cycles the operation
   could occupy,
3. repeatedly pick the (operation, cycle) assignment with the lowest
   *force* (self force + predecessor/successor forces) and fix it,
   updating windows and distributions.

Incrementality
--------------
The greedy loop is *incremental* while staying schedule-identical to the
textbook version (the golden tests in ``tests/golden/`` pin this):

* ASAP/ALAP windows are not recomputed from scratch after each fixing —
  only the **cone** actually affected by the newly fixed operation is
  updated (its descendants for ASAP, its ancestors for ALAP).  Longest-
  path values outside the cone provably cannot change, and the updates
  are pure integer arithmetic, so the windows are exactly those a full
  recomputation would produce.
* Only the distribution series of operation types whose windows changed
  are rebuilt.  A series is rebuilt from scratch, summing its
  operations in the order :func:`_distribution` does, never patched by
  subtracting old and adding new float terms: those deltas would change
  low bits and with them the tie-breaks.
* An unfixed operation's best ``(force, name, cycle)`` is kept until its
  type's series changes; nothing else enters its forces.
* The candidate-independent *average* term of the self force is hoisted
  out of the per-candidate loop: the textbook formulation recomputes the
  same sum for every candidate cycle, turning an O(width·delay) scan
  into O(width²·delay).  The hoisted term is accumulated with the exact
  same float operations, so forces are bit-identical.

The start times do not depend on powers, so they are memoized per
graph, delays and bound (see :mod:`repro.scheduling.memo`); the two-step
baseline, whose first step is this scheduler, shares the entry.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..ir.analysis import asap_times, validated_delays
from ..ir.cdfg import CDFG
from ..ir.operation import OpType
from . import memo
from .schedule import Schedule

#: Shared sentinel for "no operation of this type has a window": the
#: self force over an all-zero series is identically zero, so there is no
#: need to materialize a throwaway ``[0.0] * latency`` list per miss.
_NO_DISTRIBUTION: Tuple[float, ...] = ()


def _members_by_type(cdfg: CDFG, names: Iterable[str]) -> Dict[OpType, List[str]]:
    """Non-virtual operations of ``names`` grouped by type, order kept."""
    members: Dict[OpType, List[str]] = {}
    for name in names:
        op = cdfg.operation(name)
        if not op.is_virtual:
            members.setdefault(op.optype, []).append(name)
    return members


def _type_series(
    names: Sequence[str],
    windows: Mapping[str, Tuple[int, int]],
    delays: Mapping[str, int],
    latency: int,
) -> List[float]:
    """Expected occupancy per cycle of the operations ``names`` (one type)."""
    series = [0.0] * latency
    for name in names:
        earliest, latest = windows[name]
        width = latest - earliest + 1
        if width <= 0:
            continue
        probability = 1.0 / width
        for start in range(earliest, latest + 1):
            for cycle in range(start, min(start + delays[name], latency)):
                series[cycle] += probability
    return series


def _distribution(
    cdfg: CDFG,
    windows: Mapping[str, Tuple[int, int]],
    delays: Mapping[str, int],
    latency: int,
) -> Dict[OpType, List[float]]:
    """Per-type expected occupancy per cycle (the FDS distribution graph)."""
    return {
        optype: _type_series(names, windows, delays, latency)
        for optype, names in _members_by_type(cdfg, windows).items()
    }


def _window_average(
    series: Sequence[float],
    delay: int,
    earliest: int,
    latest: int,
    latency: int,
) -> float:
    """Mean occupancy the operation would claim over its whole window.

    This is the candidate-independent term of the self force; it is
    accumulated in the same order as the textbook per-candidate loop so
    hoisting it does not change a single bit of the result.
    """
    average = 0.0
    for start in range(earliest, latest + 1):
        for cycle in range(start, min(start + delay, latency)):
            average += series[cycle]
    return average / max(latest - earliest + 1, 1)


def _self_force(
    op_type: OpType,
    delays_for_op: int,
    window: Tuple[int, int],
    candidate_start: int,
    distribution: Mapping[OpType, Sequence[float]],
    latency: int,
) -> float:
    """Force of fixing one operation at ``candidate_start``."""
    earliest, latest = window
    series = distribution.get(op_type, _NO_DISTRIBUTION)
    if not series:
        return 0.0
    average = _window_average(series, delays_for_op, earliest, latest, latency)
    chosen = 0.0
    for cycle in range(candidate_start, min(candidate_start + delays_for_op, latency)):
        chosen += series[cycle]
    return chosen - average


class _ForceState:
    """The incremental state of one force-directed run.

    Holds the ASAP/ALAP maps under the operations fixed so far, every
    operation's window, the distribution graph, and each unfixed
    operation's best ``(force, name, cycle)``.  :meth:`fix` updates all
    of them after one placement, touching only what the placement moved.
    """

    def __init__(self, cdfg: CDFG, delays: Mapping[str, int], latency: int) -> None:
        self.cdfg = cdfg
        self.delays = delays
        self.latency = latency
        names = cdfg.operation_names()
        self.fixed: Dict[str, int] = {}
        self.asap = asap_times(cdfg, delays)
        self.alap = _alap_with_fixed(cdfg, delays, self.fixed, latency)
        self.windows = {n: self._window(n) for n in names}
        self.members = _members_by_type(cdfg, names)
        self.optypes = {n: t for t, group in self.members.items() for n in group}
        self.distribution = _distribution(cdfg, self.windows, delays, latency)
        #: Unfixed operation → its lowest-force placement.
        self.best_of = {n: self._best_placement(n) for n in names if n in self.optypes}

    def _window(self, name: str) -> Tuple[int, int]:
        asap = self.asap[name]
        return max(asap, 0), max(self.alap[name], asap)

    def _best_placement(self, name: str) -> Tuple[float, str, int]:
        earliest, latest = self.windows[name]
        series = self.distribution.get(self.optypes[name], _NO_DISTRIBUTION)
        if not series:
            # No distribution for this type: every candidate has zero
            # force (mirrors _self_force's empty-series answer), so only
            # the earliest can win the (force, name, cycle) min.
            return (0.0, name, earliest)
        delay = self.delays[name]
        latency = self.latency
        average = _window_average(series, delay, earliest, latest, latency)
        best = None
        for candidate in range(earliest, latest + 1):
            chosen = 0.0
            for cycle in range(candidate, min(candidate + delay, latency)):
                chosen += series[cycle]
            key = (chosen - average, name, candidate)
            if best is None or key < best:
                best = key
        return best

    def fix(self, name: str, start: int) -> None:
        """Fix ``name`` at ``start`` and bring the state up to date."""
        self.fixed[name] = start
        del self.best_of[name]
        moved = [name]
        moved += _refresh_asap_cone(self.cdfg, self.delays, self.fixed, self.asap, name)
        moved += _refresh_alap_cone(
            self.cdfg, self.delays, self.fixed, self.alap, name, self.latency
        )
        dirty = set()
        for op in moved:
            window = self._window(op)
            if window != self.windows[op]:
                self.windows[op] = window
                if op in self.optypes:
                    dirty.add(self.optypes[op])
        for optype in dirty:
            group = self.members[optype]
            self.distribution[optype] = _type_series(
                group, self.windows, self.delays, self.latency
            )
            for op in group:
                if op in self.best_of:
                    self.best_of[op] = self._best_placement(op)


def force_directed_schedule(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    latency: int,
    label: str = "force-directed",
) -> Schedule:
    """Time-constrained schedule balancing per-type concurrency.

    Args:
        cdfg: Graph to schedule.
        delays: Per-operation latency in cycles.
        powers: Per-operation per-cycle power (recorded on the result).
        latency: Latency bound in cycles.
        label: Label stored on the resulting schedule.

    Returns:
        A precedence-legal schedule meeting the latency bound.
    """
    delays = validated_delays(cdfg, delays)
    key = ("force_directed", latency, memo.signature(cdfg, delays))
    (start,) = memo.recall(key, lambda: (_force_directed_start_times(cdfg, delays, latency),))
    return Schedule(
        cdfg=cdfg,
        start_times=start,
        delays=dict(delays),
        powers=dict(powers),
        label=label,
        metadata={"latency_bound": latency},
    )


def _force_directed_start_times(
    cdfg: CDFG, delays: Mapping[str, int], latency: int
) -> Dict[str, int]:
    state = _ForceState(cdfg, delays, latency)
    while state.best_of:
        _, name, start = min(state.best_of.values())
        state.fix(name, start)

    # Virtual operations at their data-ready time.
    start_times: Dict[str, int] = dict(state.fixed)
    for name in cdfg.topological_order():
        if name in start_times:
            continue
        ready = 0
        for pred in cdfg.predecessors(name):
            ready = max(ready, start_times.get(pred, 0) + delays[pred])
        start_times[name] = ready
    return start_times


def _asap_with_fixed(
    cdfg: CDFG, delays: Mapping[str, int], fixed: Mapping[str, int]
) -> Dict[str, int]:
    """Earliest starts with ``fixed`` pinned, by one full pass.

    The reference :func:`_refresh_asap_cone` must agree with after every
    placement (the incremental-state tests check it).
    """
    start: Dict[str, int] = {}
    for name in cdfg.topological_order():
        ready = 0
        for pred in cdfg.predecessors(name):
            ready = max(ready, start[pred] + delays[pred])
        start[name] = fixed.get(name, ready)
    return start


def _alap_with_fixed(
    cdfg: CDFG, delays: Mapping[str, int], fixed: Mapping[str, int], latency: int
) -> Dict[str, int]:
    """Latest starts under ``latency`` with ``fixed`` pinned, by one full pass."""
    start: Dict[str, int] = {}
    for name in cdfg.reverse_topological_order():
        latest_finish = latency
        for succ in cdfg.successors(name):
            latest_finish = min(latest_finish, start[succ])
        start[name] = fixed.get(name, latest_finish - delays[name])
    return start


def _refresh_asap_cone(
    cdfg: CDFG,
    delays: Mapping[str, int],
    fixed: Mapping[str, int],
    asap: Dict[str, int],
    changed_op: str,
) -> List[str]:
    """Update ``asap`` in place after ``changed_op`` was fixed.

    Longest-path-from-sources values can only change for ``changed_op``
    itself and its transitive successors, so only nodes reached through
    *actually changed* values are revisited — a worklist ordered by
    topological rank, so every node is recomputed after its changed
    predecessors, exactly as a full pass would.  Nodes whose recomputed
    value is unchanged do not propagate further.  Produces exactly the
    map :func:`_asap_with_fixed` would.  Returns the names whose value
    changed.
    """
    new_value = fixed[changed_op]
    if asap[changed_op] == new_value:
        return []
    asap[changed_op] = new_value
    changed = [changed_op]
    positions = cdfg.topological_positions()
    heap = [(positions[succ], succ) for succ in cdfg.successors(changed_op)]
    heapq.heapify(heap)
    seen = set()
    while heap:
        _, name = heapq.heappop(heap)
        if name in seen:
            continue
        seen.add(name)
        ready = 0
        for pred in cdfg.predecessors(name):
            ready = max(ready, asap[pred] + delays[pred])
        value = fixed.get(name, ready)
        if value != asap[name]:
            asap[name] = value
            changed.append(name)
            for succ in cdfg.successors(name):
                if succ not in seen:
                    heapq.heappush(heap, (positions[succ], succ))
    return changed


def _refresh_alap_cone(
    cdfg: CDFG,
    delays: Mapping[str, int],
    fixed: Mapping[str, int],
    alap: Dict[str, int],
    changed_op: str,
    latency: int,
) -> List[str]:
    """Update ``alap`` in place after ``changed_op`` was fixed.

    The mirror of :func:`_refresh_asap_cone`: latest-start values can only
    change for ``changed_op`` and its transitive *predecessors*, visited
    in reverse topological rank order.  Returns the names whose value
    changed.
    """
    new_value = fixed[changed_op]
    if alap[changed_op] == new_value:
        return []
    alap[changed_op] = new_value
    changed = [changed_op]
    positions = cdfg.topological_positions()
    heap = [(-positions[pred], pred) for pred in cdfg.predecessors(changed_op)]
    heapq.heapify(heap)
    seen = set()
    while heap:
        _, name = heapq.heappop(heap)
        if name in seen:
            continue
        seen.add(name)
        latest_finish = latency
        for succ in cdfg.successors(name):
            latest_finish = min(latest_finish, alap[succ])
        value = fixed.get(name, latest_finish - delays[name])
        if value != alap[name]:
            alap[name] = value
            changed.append(name)
            for pred in cdfg.predecessors(name):
                if pred not in seen:
                    heapq.heappush(heap, (-positions[pred], pred))
    return changed
