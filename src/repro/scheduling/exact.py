"""Exact (exhaustive) power-constrained scheduling for tiny graphs.

The pasap/palap schedulers are heuristics; for scientific hygiene this
module provides a small branch-and-bound scheduler that enumerates start
times for graphs of up to ~12 operations and finds

* the minimum makespan achievable under a power budget
  (:func:`minimum_latency_under_power`), and
* whether any schedule exists under a (T, P) pair
  (:func:`exists_schedule`).

The test-suite uses it to quantify the heuristic's optimality gap on
random small graphs, and the documentation uses it to justify treating a
collapsed pasap/palap window as an infeasibility *signal* rather than a
proof.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

from ..ir.cdfg import CDFG
from .constraints import PowerConstraint
from .schedule import Schedule, add_to_profile, profile_allows

#: Default safety cap on the number of operations the exhaustive search
#: accepts; callers can raise it per call (``max_operations=``) or per
#: engine (``EngineOptions.exact_max_operations``).
MAX_OPERATIONS = 12


class ExactSchedulerError(Exception):
    """Raised when exhaustive search fails (size cap or infeasibility)."""


class ExactSizeError(ExactSchedulerError):
    """The graph exceeds the exhaustive-search size cap.

    A *capacity* verdict, not a scheduling one: the differential harness
    keys on this type to tell "too big to try" apart from a genuine
    infeasibility result.
    """


def _check_size(cdfg: CDFG, max_operations: int) -> None:
    count = len(cdfg.schedulable_operations())
    if count > max_operations:
        raise ExactSizeError(
            f"exact scheduling limited to {max_operations} operations, got {count}"
        )


def _tail_lengths(
    cdfg: CDFG, delays: Mapping[str, int]
) -> Dict[str, int]:
    """Longest delay chain from each operation (inclusive) to any sink.

    ``tail[v]`` is a *dominance bound*: any schedule that starts ``v`` at
    cycle ``t`` finishes no earlier than ``t + tail[v]`` — the chain of
    successors below ``v`` must run after it, back to back at best.  The
    search uses it to discard every candidate start time whose best-case
    completion already matches the incumbent.
    """
    tail: Dict[str, int] = {}
    for name in cdfg.reverse_topological_order():
        longest_successor = 0
        for succ in cdfg.successors(name):
            longest_successor = max(longest_successor, tail[succ])
        tail[name] = delays[name] + longest_successor
    return tail


def _energy_lower_bound(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    tail: Mapping[str, int],
) -> int:
    """Provable minimum makespan of *any* schedule under the budget.

    The larger of the critical-path length and the total-energy bound
    ``ceil(Σ power·delay / P)`` (the full computation's energy has to
    fit under the per-cycle cap).  Once the incumbent reaches this value
    the branch-and-bound can stop: no unexplored branch improves on it.
    """
    critical_path = max(tail.values(), default=0)
    if power.is_unbounded:
        return critical_path
    total_energy = sum(delays[n] * powers[n] for n in cdfg.operation_names())
    if total_energy <= 0:
        return critical_path
    # profile_allows admits per-cycle power up to max_power + tolerance,
    # so bound against that effective cap (and shave an epsilon) to keep
    # the bound strictly on the sound side of float wobble.
    effective_cap = power.max_power + power.tolerance
    return max(critical_path, math.ceil(total_energy / effective_cap - 1e-9))


def _search(
    cdfg: CDFG,
    order: List[str],
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    horizon: int,
    index: int,
    start: Dict[str, int],
    profile: List[float],
    best: List[Optional[int]],
    tail: Mapping[str, int],
    lower_bound: int,
) -> None:
    """Depth-first search over start times in a fixed topological order.

    ``best`` is a two-slot cell: ``best[0]`` holds the incumbent makespan
    and ``best[1]`` the start-time map achieving it.

    Three sound prunes keep the enumeration away from provably-worse
    branches without ever changing which improving schedules are found
    (so the incumbent sequence — and the returned schedule — is
    identical to the unpruned search):

    * the **horizon bound** ``candidate + tail[name] > horizon`` cuts a
      candidate whose downstream chain cannot finish by the horizon, so
      an infeasible instance is not enumerated start by start,
    * the memoized **tail bound** ``candidate + tail[name] >= best``
      cuts a candidate whose downstream chain alone already reaches the
      incumbent makespan, and
    * the precomputed **energy/critical-path lower bound** stops the
      whole search as soon as the incumbent provably cannot be beaten.
    """
    if best[0] is not None and best[0] <= lower_bound:
        return
    if index == len(order):
        makespan = max(
            (start[n] + delays[n] for n in start), default=0
        )
        if best[0] is None or makespan < best[0]:
            best[0] = makespan
            best[1] = dict(start)
        return

    name = order[index]
    data_ready = 0
    for pred in cdfg.predecessors(name):
        if pred in start:
            data_ready = max(data_ready, start[pred] + delays[pred])

    op_delay = delays[name]
    op_power = powers[name]
    op_tail = tail[name]
    for candidate in range(data_ready, horizon - op_delay + 1):
        # Prune: the chain below this operation cannot end by the horizon,
        # so no completion exists here or at any later candidate.
        if candidate + op_tail > horizon:
            break
        # Prune: the dependence chain below this operation alone already
        # finishes no earlier than the incumbent makespan, and later
        # candidates only finish later.
        if best[0] is not None and candidate + op_tail >= best[0]:
            break
        if op_power > 0 and not profile_allows(profile, candidate, op_delay, op_power, power):
            continue
        start[name] = candidate
        if op_power > 0:
            add_to_profile(profile, candidate, op_delay, op_power)
        _search(
            cdfg, order, delays, powers, power, horizon, index + 1,
            start, profile, best, tail, lower_bound,
        )
        if op_power > 0:
            for cycle in range(candidate, candidate + op_delay):
                profile[cycle] -= op_power
        del start[name]


def minimum_latency_under_power(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    horizon: Optional[int] = None,
    max_operations: int = MAX_OPERATIONS,
) -> Optional[int]:
    """Smallest makespan of any schedule meeting the power budget.

    Returns ``None`` when no schedule exists within the search horizon
    (which only happens if a single operation exceeds the budget).

    Raises:
        ExactSizeError: if the graph has more than ``max_operations``
            schedulable operations (default :data:`MAX_OPERATIONS`).
    """
    _check_size(cdfg, max_operations)
    operations = [n for n in cdfg.topological_order()]
    if horizon is None:
        horizon = sum(delays[n] for n in operations) + 1
    best: List = [None, None]
    tail = _tail_lengths(cdfg, delays)
    lower_bound = _energy_lower_bound(cdfg, delays, powers, power, tail)
    _search(
        cdfg,
        operations,
        delays,
        powers,
        power,
        horizon,
        0,
        {},
        [],
        best,
        tail,
        lower_bound,
    )
    return best[0]


def exists_schedule(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    latency: int,
    max_operations: int = MAX_OPERATIONS,
) -> bool:
    """True if some schedule meets both the power budget and the latency bound."""
    best = minimum_latency_under_power(
        cdfg, delays, powers, power, horizon=latency, max_operations=max_operations
    )
    return best is not None and best <= latency


def exact_schedule(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    latency: int,
    label: str = "exact",
    max_operations: int = MAX_OPERATIONS,
) -> Schedule:
    """Makespan-optimal schedule under ``(latency, power)`` by exhaustive search.

    Raises:
        ExactSizeError: when the graph exceeds ``max_operations``.
        ExactSchedulerError: when no schedule exists within the latency bound.
    """
    _check_size(cdfg, max_operations)
    order = list(cdfg.topological_order())
    best: List = [None, None]
    tail = _tail_lengths(cdfg, delays)
    lower_bound = _energy_lower_bound(cdfg, delays, powers, power, tail)
    _search(
        cdfg, order, delays, powers, power, latency, 0, {}, [], best,
        tail, lower_bound,
    )
    if best[0] is None or best[0] > latency:
        raise ExactSchedulerError(
            f"no schedule for {cdfg.name!r} meets T={latency} under the power budget"
        )
    return Schedule(
        cdfg=cdfg,
        start_times=dict(best[1]),
        delays=dict(delays),
        powers=dict(powers),
        label=label,
        metadata={"optimal_makespan": best[0], "latency_bound": latency},
    )


def optimality_gap(
    heuristic: Schedule,
    power: PowerConstraint,
) -> Optional[float]:
    """Relative makespan gap of a heuristic schedule vs. the exact optimum.

    Returns ``(heuristic - optimal) / optimal`` or ``None`` when the exact
    search finds no schedule (should not happen for feasible heuristics).
    """
    # The heuristic schedule is itself feasible, so the optimum is never
    # worse than its makespan; bounding the search horizon accordingly
    # keeps the exhaustive enumeration tractable.
    optimal = minimum_latency_under_power(
        heuristic.cdfg,
        heuristic.delays,
        heuristic.powers,
        power,
        horizon=heuristic.makespan,
    )
    if optimal is None or optimal == 0:
        return None
    return (heuristic.makespan - optimal) / optimal
