"""Power-constrained ALAP scheduling (``palap``).

The paper pairs pasap with its "time-reversed" analogue, palap: run the
same power-constrained stretching on the *reversed* CDFG against the
latency bound ``T``, which yields for every operation the *latest* start
time that still admits a power-feasible completion by cycle ``T``.

Together the pasap and palap start times bound each operation's
power-feasible scheduling window; the combined synthesis engine only
considers placements inside these windows.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..ir.cdfg import CDFG
from ..library.library import FULibrary
from ..library.selection import (
    MinPowerSelection,
    Selection,
    selection_delays,
    selection_powers,
)
from .constraints import PowerConstraint, TimeConstraint
from .pasap import (
    LockedProfileCache,
    PowerInfeasibleError,
    PriorityFn,
    default_priority,
    pasap_core,
)
from .schedule import Schedule


def palap_schedule(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    latency: int,
    locked: Optional[Mapping[str, int]] = None,
    priority: PriorityFn = default_priority,
    label: str = "palap",
) -> Schedule:
    """Power-constrained ALAP schedule under latency bound ``latency``.

    The reversal trick: schedule the reversed graph with pasap (treating
    each operation's *finish* as its reversed start), then map the
    reversed start time ``t'`` back to a forward start ``latency - t' - d``.

    Args:
        cdfg: Graph to schedule.
        delays: Per-operation latency in cycles.
        powers: Per-operation per-cycle power.
        power: The per-cycle power budget ``P``.
        latency: The latency bound ``T``.
        locked: Forward start times of operations that are already fixed.
        priority: Ready-operation ordering for the underlying pasap run.
        label: Label stored on the resulting schedule.

    Raises:
        PowerInfeasibleError: if the latency bound cannot accommodate a
            power-feasible schedule (some operation would start before
            cycle 0).
    """
    start = palap_core(cdfg, delays, powers, power, latency, locked, priority)
    return Schedule(
        cdfg=cdfg,
        start_times=start,
        delays=dict(delays),
        powers=dict(powers),
        label=label,
        metadata={"power_budget": power.max_power, "latency_bound": latency},
    )


def palap_core(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    latency: int,
    locked: Optional[Mapping[str, int]] = None,
    priority: PriorityFn = default_priority,
    locked_base: Optional[LockedProfileCache] = None,
) -> Dict[str, int]:
    """The palap reversal, returning only the forward start-time map.

    Like :func:`repro.scheduling.pasap.pasap_core` this skips the
    :class:`Schedule` packaging for the engine's window recomputation
    loop; the reversed graph itself comes from the CDFG's cache instead
    of being rebuilt (a full graph copy) on every call.
    """
    reversed_cdfg = cdfg.reversed()

    # Translate locked forward start times into reversed start times.
    locked = locked or {}
    reversed_locked: Dict[str, int] = {
        name: latency - fwd_start - delays[name]
        for name, fwd_start in locked.items()
        if name in cdfg
    }
    if reversed_locked and min(reversed_locked.values()) < 0:
        for name, rev_start in reversed_locked.items():
            if rev_start < 0:
                raise PowerInfeasibleError(
                    f"locked start {locked[name]} of {name!r} lies beyond the "
                    f"latency bound {latency}"
                )

    reversed_start = pasap_core(
        reversed_cdfg,
        delays,
        powers,
        power,
        locked=reversed_locked,
        priority=priority,
        locked_base=locked_base,
    )

    start: Dict[str, int] = {
        name: latency - rev_start - delays[name]
        for name, rev_start in reversed_start.items()
    }
    if start and min(start.values()) < 0:
        for name, fwd_start in start.items():
            if fwd_start < 0:
                raise PowerInfeasibleError(
                    f"latency bound {latency} infeasible under power budget "
                    f"{power.max_power:.3f}: operation {name!r} would start at "
                    f"cycle {fwd_start}"
                )
    return start


def palap_schedule_with_library(
    cdfg: CDFG,
    library: FULibrary,
    power: PowerConstraint,
    time: TimeConstraint,
    selection: Optional[Selection] = None,
    locked: Optional[Mapping[str, int]] = None,
    label: str = "palap",
) -> Schedule:
    """palap using delays/powers from a library module selection."""
    if selection is None:
        selection = MinPowerSelection().select(cdfg, library)
    delays = selection_delays(selection, cdfg)
    powers = selection_powers(selection, cdfg)
    return palap_schedule(
        cdfg, delays, powers, power, time.latency, locked=locked, label=label
    )


def palap_start_times(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    latency: int,
    locked: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Convenience wrapper returning only the start-time map."""
    return palap_schedule(cdfg, delays, powers, power, latency, locked=locked).start_times
