"""Schedulers: classical baselines and the paper's power-constrained pasap/palap."""

from .constraints import (
    ConstraintError,
    PowerConstraint,
    ResourceConstraint,
    SynthesisConstraints,
    TimeConstraint,
    UnsupportedConstraintError,
    feasible_power_floor,
    minimum_feasible_power,
)
from .schedule import Schedule, ScheduleError, add_to_profile, profile_allows
from .asap import asap_schedule, asap_schedule_with_library
from .alap import alap_schedule, alap_schedule_with_library
from .pasap import (
    LockedProfileCache,
    PowerInfeasibleError,
    default_priority,
    pasap_core,
    pasap_schedule,
    pasap_schedule_with_library,
    pasap_start_times,
)
from .palap import palap_core, palap_schedule, palap_schedule_with_library, palap_start_times
from .mobility import Window, WindowCache, WindowSet, compute_windows, windows_feasible
from .list_scheduler import (
    ResourceInfeasibleError,
    greedy_allocation_for_latency,
    list_schedule,
    list_schedule_for_latency,
    minimal_allocation,
)
from .force_directed import force_directed_schedule
from .two_step import TwoStepResult, two_step_schedule
from .exact import (
    ExactSchedulerError,
    ExactSizeError,
    exact_schedule,
    exists_schedule,
    minimum_latency_under_power,
    optimality_gap,
)

__all__ = [
    "ConstraintError",
    "UnsupportedConstraintError",
    "PowerConstraint",
    "ResourceConstraint",
    "SynthesisConstraints",
    "TimeConstraint",
    "feasible_power_floor",
    "minimum_feasible_power",
    "Schedule",
    "ScheduleError",
    "add_to_profile",
    "profile_allows",
    "asap_schedule",
    "asap_schedule_with_library",
    "alap_schedule",
    "alap_schedule_with_library",
    "PowerInfeasibleError",
    "default_priority",
    "LockedProfileCache",
    "pasap_core",
    "pasap_schedule",
    "pasap_schedule_with_library",
    "pasap_start_times",
    "palap_core",
    "palap_schedule",
    "palap_schedule_with_library",
    "palap_start_times",
    "Window",
    "WindowSet",
    "WindowCache",
    "compute_windows",
    "windows_feasible",
    "ResourceInfeasibleError",
    "greedy_allocation_for_latency",
    "list_schedule",
    "list_schedule_for_latency",
    "minimal_allocation",
    "force_directed_schedule",
    "TwoStepResult",
    "two_step_schedule",
    "ExactSchedulerError",
    "ExactSizeError",
    "exact_schedule",
    "exists_schedule",
    "minimum_latency_under_power",
    "optimality_gap",
]


# --------------------------------------------------------------------------- #
# Strategy registrations
#
# Each adapter bridges a scheduler's native signature to the pipeline
# contract: read what it needs from the PipelineContext (duck-typed, so
# this package never imports repro.api), write ctx.schedule.  New
# schedulers plug in the same way — decorate an adapter and a task can
# name it; no new top-level entry point required.
# --------------------------------------------------------------------------- #
from ..registries import SCHEDULERS as _SCHEDULERS


@_SCHEDULERS.register("asap")
def _asap_strategy(ctx) -> None:
    """Earliest data-ready start for every operation (no constraints)."""
    ctx.schedule = asap_schedule(
        ctx.cdfg, ctx.delays, ctx.powers, label=ctx.strategy_label("asap")
    )


@_SCHEDULERS.register("alap")
def _alap_strategy(ctx) -> None:
    """Latest start under the latency bound."""
    ctx.schedule = alap_schedule(
        ctx.cdfg,
        ctx.delays,
        ctx.powers,
        ctx.require_latency("alap"),
        label=ctx.strategy_label("alap"),
    )


@_SCHEDULERS.register("list")
def _list_strategy(ctx) -> None:
    """Resource-constrained list scheduling with a greedy minimal allocation."""
    module_of = {
        name: ctx.selection[name] for name in ctx.cdfg.schedulable_operations()
    }
    ctx.schedule = list_schedule_for_latency(
        ctx.cdfg,
        ctx.delays,
        ctx.powers,
        module_of,
        ctx.require_latency("list"),
        label=ctx.strategy_label("list"),
    )
    ctx.metrics["allocation"] = dict(ctx.schedule.metadata["allocation"])


@_SCHEDULERS.register("force_directed")
def _force_directed_strategy(ctx) -> None:
    """Paulin/Knight force-directed scheduling under the latency bound."""
    ctx.schedule = force_directed_schedule(
        ctx.cdfg,
        ctx.delays,
        ctx.powers,
        ctx.require_latency("force_directed"),
        label=ctx.strategy_label("force_directed"),
    )


@_SCHEDULERS.register("pasap")
def _pasap_strategy(ctx) -> None:
    """The paper's power-constrained ASAP (no latency bound needed)."""
    ctx.schedule = pasap_schedule(
        ctx.cdfg,
        ctx.delays,
        ctx.powers,
        ctx.power_constraint,
        label=ctx.strategy_label("pasap"),
    )


@_SCHEDULERS.register("palap")
def _palap_strategy(ctx) -> None:
    """The paper's power-constrained ALAP under the latency bound."""
    ctx.schedule = palap_schedule(
        ctx.cdfg,
        ctx.delays,
        ctx.powers,
        ctx.power_constraint,
        ctx.require_latency("palap"),
        label=ctx.strategy_label("palap"),
    )


@_SCHEDULERS.register("two_step")
def _two_step_strategy(ctx) -> None:
    """Schedule-then-repair baseline; records whether the repair met P."""
    outcome = two_step_schedule(
        ctx.cdfg,
        ctx.delays,
        ctx.powers,
        ctx.power_constraint,
        TimeConstraint(ctx.require_latency("two_step")),
        label=ctx.strategy_label("two_step"),
    )
    ctx.schedule = outcome.schedule
    ctx.metrics["met_power"] = outcome.met_power
    ctx.metrics["repair_moves"] = outcome.moves


@_SCHEDULERS.register("exact")
def _exact_strategy(ctx) -> None:
    """Exhaustive makespan-optimal scheduling (tiny graphs only)."""
    ctx.schedule = exact_schedule(
        ctx.cdfg,
        ctx.delays,
        ctx.powers,
        ctx.power_constraint,
        ctx.require_latency("exact"),
        label=ctx.strategy_label("exact"),
        max_operations=ctx.options.exact_max_operations,
    )
