"""Classical as-late-as-possible (ALAP) scheduling.

ALAP pushes every operation as late as the latency bound allows; together
with ASAP it defines each operation's mobility window, which the
force-directed baseline uses.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..ir.cdfg import CDFG, CDFGError
from ..library.library import FULibrary
from ..library.selection import (
    MinPowerSelection,
    Selection,
    selection_delays,
    selection_powers,
)
from .constraints import TimeConstraint
from .schedule import Schedule


def alap_schedule(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    latency: int,
    locked: Optional[Mapping[str, int]] = None,
    label: str = "alap",
) -> Schedule:
    """Schedule every operation at its latest start under a latency bound.

    Args:
        cdfg: Graph to schedule.
        delays: Per-operation latency in cycles.
        powers: Per-operation per-cycle power.
        latency: Cycle budget; all operations must finish by this cycle.
        locked: Optional fixed start times honoured verbatim.
        label: Label stored on the resulting schedule.

    Raises:
        CDFGError: if the latency bound is below the critical path, i.e.
            some operation would need to start before cycle 0.
    """
    locked = dict(locked or {})
    start: Dict[str, int] = {}
    for name in cdfg.reverse_topological_order():
        if name in locked:
            start[name] = locked[name]
            continue
        latest_finish = latency
        for succ in cdfg.successors(name):
            latest_finish = min(latest_finish, start[succ])
        start[name] = latest_finish - delays[name]
        if start[name] < 0:
            raise CDFGError(
                f"latency bound {latency} infeasible: operation {name!r} "
                f"would have to start at cycle {start[name]}"
            )
    return Schedule(
        cdfg=cdfg,
        start_times=start,
        delays=dict(delays),
        powers=dict(powers),
        label=label,
        metadata={"latency_bound": latency},
    )


def alap_schedule_with_library(
    cdfg: CDFG,
    library: FULibrary,
    time: TimeConstraint,
    selection: Optional[Selection] = None,
    label: str = "alap",
) -> Schedule:
    """ALAP schedule using delays/powers from a library module selection."""
    if selection is None:
        selection = MinPowerSelection().select(cdfg, library)
    delays = selection_delays(selection, cdfg)
    powers = selection_powers(selection, cdfg)
    return alap_schedule(cdfg, delays, powers, time.latency, label=label)
