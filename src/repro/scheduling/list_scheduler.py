"""Resource-constrained list scheduling (baseline).

A classical HLS baseline: given a fixed allocation (number of instances
per module), schedule operations cycle by cycle, picking among the ready
operations by a priority (default: least mobility first).  It is used

* as a reference point in the ablation benchmarks (resource-constrained
  vs. power-constrained scheduling), and
* as the ``list`` strategy (:func:`list_schedule_for_latency`), which
  first finds a small allocation meeting the latency bound.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Tuple

from ..ir.analysis import alap_times, asap_times, critical_path_length, validated_delays
from ..ir.cdfg import CDFG, CDFGError
from ..library.module import FUModule
from . import memo
from .schedule import Schedule


class ResourceInfeasibleError(Exception):
    """Raised when the allocation cannot execute the graph at all."""


def list_schedule(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    module_of: Mapping[str, FUModule],
    allocation: Mapping[str, int],
    latency_hint: Optional[int] = None,
    label: str = "list",
) -> Schedule:
    """Schedule under per-module instance limits.

    Args:
        cdfg: Graph to schedule.
        delays: Per-operation latency.
        powers: Per-operation per-cycle power.
        module_of: Operation name → library module implementing it.
            Virtual operations (constants, no-ops) may be omitted; they
            consume no resource and take zero cycles.
        allocation: Module name → number of available instances.  Modules
            not listed default to one instance.
        latency_hint: Latency used to compute mobility priorities
            (defaults to the critical path length).
        label: Label stored on the resulting schedule.

    Returns:
        A precedence- and resource-legal schedule.  The power profile is
        whatever falls out of resource contention (no power budget here).

    Raises:
        ResourceInfeasibleError: if some required module has a zero
            instance count, or the scheduler fails to make progress.
    """
    for name in cdfg.schedulable_operations():
        module = module_of.get(name)
        if module is None:
            raise ResourceInfeasibleError(f"no module assigned to operation {name!r}")
        if allocation.get(module.name, 1) <= 0:
            raise ResourceInfeasibleError(
                f"allocation gives zero instances of {module.name!r}, "
                f"needed by {name!r}"
            )
    checked = validated_delays(cdfg, delays)
    start = _list_start_times(
        cdfg, checked, module_of, allocation, _priorities(cdfg, checked, latency_hint)
    )
    return Schedule(
        cdfg=cdfg,
        start_times=start,
        delays=dict(delays),
        powers=dict(powers),
        label=label,
        metadata={"allocation": dict(allocation)},
    )


def _priorities(
    cdfg: CDFG, delays: Mapping[str, int], latency_hint: Optional[int]
) -> Dict[str, Tuple[int, str]]:
    """Each operation's ``(mobility, name)`` list priority, least first.

    Mobility is ALAP minus ASAP under ``latency_hint`` (the critical path
    when absent); a hint below the critical path counts every ALAP as 0.
    """
    latency_hint = latency_hint or critical_path_length(cdfg, delays)
    try:
        alap = alap_times(cdfg, latency_hint, delays)
    except CDFGError:
        alap = {n: 0 for n in cdfg.operation_names()}
    asap = asap_times(cdfg, delays)
    return {n: (alap.get(n, 0) - asap.get(n, 0), n) for n in cdfg.operation_names()}


def _list_start_times(
    cdfg: CDFG,
    delays: Mapping[str, int],
    module_of: Mapping[str, FUModule],
    allocation: Mapping[str, int],
    priority: Mapping[str, Tuple[int, str]],
) -> Dict[str, int]:
    """Cycle-by-cycle list scheduling over a predecessor-count ready queue.

    An operation joins ``pending`` once all its predecessors are placed,
    keyed by ``ready_at`` (their latest finish), and moves to the ready
    ``pool`` when the cycle reaches it.  Each round places the pool's
    operations in priority order while their module has a free instance.
    Zero-delay operations complete instantly: placing one starts another
    round in the same cycle, which sees the successors it released.
    """
    names = cdfg.operation_names()
    module_names = {n: module_of[n].name for n in cdfg.schedulable_operations()}
    # free[module] = idle instances; releases = (finish, module) of the
    # operations running on the others.
    free = {m: allocation.get(m, 1) for m in module_names.values()}
    releases: List[Tuple[int, str]] = []
    start: Dict[str, int] = {}
    waiting = {n: len(cdfg.predecessors(n)) for n in names}
    ready_at = dict.fromkeys(names, 0)
    pending: List[Tuple[int, str]] = [(0, n) for n in names if not waiting[n]]
    heapq.heapify(pending)
    pool: List[str] = []

    unplaced = len(names)
    cycle = 0
    total_cycles = sum(delays[n] for n in names)
    horizon_guard = max(4 * total_cycles + 16, 64)

    while unplaced:
        if cycle > horizon_guard:
            raise ResourceInfeasibleError(
                "list scheduling exceeded its horizon guard; allocation too small"
            )
        # Release instances whose operations completed by this cycle.
        while releases and releases[0][0] <= cycle:
            free[heapq.heappop(releases)[1]] += 1

        progressed = True
        while progressed:
            progressed = False
            while pending and pending[0][0] <= cycle:
                pool.append(heapq.heappop(pending)[1])
            pool.sort(key=priority.__getitem__)
            blocked: List[str] = []
            for name in pool:
                finish = cycle + delays[name]
                module = module_names.get(name)
                if module is not None:
                    if not free[module]:
                        blocked.append(name)
                        continue
                    free[module] -= 1
                    heapq.heappush(releases, (finish, module))
                start[name] = cycle
                unplaced -= 1
                for succ in cdfg.successors(name):
                    if ready_at[succ] < finish:
                        ready_at[succ] = finish
                    waiting[succ] -= 1
                    if not waiting[succ]:
                        heapq.heappush(pending, (ready_at[succ], succ))
                if finish == cycle:
                    progressed = True
            pool = blocked
        cycle += 1

    return start


def minimal_allocation(
    cdfg: CDFG,
    module_of: Mapping[str, FUModule],
) -> Dict[str, int]:
    """One instance of every module that some operation needs."""
    allocation: Dict[str, int] = {}
    for name in cdfg.schedulable_operations():
        module = module_of.get(name)
        if module is None:
            raise ResourceInfeasibleError(f"no module assigned to operation {name!r}")
        allocation[module.name] = max(allocation.get(module.name, 0), 1)
    return allocation


def greedy_allocation_for_latency(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    module_of: Mapping[str, FUModule],
    latency: int,
) -> Dict[str, int]:
    """Smallest allocation (found greedily) meeting a latency bound.

    Starts from one instance per needed module and adds an instance of the
    module whose operations are most delayed until the list schedule fits
    in ``latency`` cycles.

    Raises:
        ResourceInfeasibleError: if even a generous allocation cannot meet
            the bound (i.e. the bound is below the critical path).
    """
    delays = validated_delays(cdfg, delays)
    critical = critical_path_length(cdfg, delays)
    if latency < critical:
        raise ResourceInfeasibleError(
            f"latency {latency} is below the critical path; no allocation can meet it"
        )
    allocation = minimal_allocation(cdfg, module_of)
    ops_per_module: Dict[str, int] = {}
    for name in cdfg.schedulable_operations():
        ops_per_module[module_of[name].name] = ops_per_module.get(module_of[name].name, 0) + 1
    # Mobility does not depend on the allocation: rank once for every step.
    priority = _priorities(cdfg, delays, critical)

    while True:
        start = _list_start_times(cdfg, delays, module_of, allocation, priority)
        if max((start[n] + delays[n] for n in start), default=0) <= latency:
            return allocation
        # Add an instance of the module with the largest (ops / instances)
        # pressure that is still below its operation count.
        candidates = [
            (ops_per_module[m] / allocation[m], m)
            for m in allocation
            if allocation[m] < ops_per_module[m]
        ]
        if not candidates:
            # Fully parallel allocation still misses the bound; give up.
            raise ResourceInfeasibleError(
                f"cannot meet latency {latency} even with one instance per operation"
            )
        _, module_name = max(candidates)
        allocation[module_name] += 1


def list_schedule_for_latency(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    module_of: Mapping[str, FUModule],
    latency: int,
    label: str = "list",
) -> Schedule:
    """The ``list`` strategy: a greedy allocation for ``latency``, then
    the list schedule under it with ``latency`` as the mobility hint.

    The allocation is on ``metadata["allocation"]``.  Neither step reads
    a power, so the pair is memoized per graph, delays, module names and
    bound (see :mod:`repro.scheduling.memo`).

    Raises:
        ResourceInfeasibleError: as :func:`greedy_allocation_for_latency`.
    """

    def compute() -> memo.Parts:
        allocation = greedy_allocation_for_latency(
            cdfg, delays, powers, module_of, latency
        )
        schedule = list_schedule(
            cdfg, delays, powers, module_of, allocation, latency_hint=latency
        )
        return allocation, schedule.start_times

    checked = validated_delays(cdfg, delays)
    key = ("list", latency, memo.signature(cdfg, checked, module_of))
    allocation, start = memo.recall(key, compute)
    return Schedule(
        cdfg=cdfg,
        start_times=start,
        delays=dict(delays),
        powers=dict(powers),
        label=label,
        metadata={"allocation": allocation},
    )
