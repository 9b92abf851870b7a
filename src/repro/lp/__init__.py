"""``repro.lp``: a zero-dependency exact ILP scheduling backend.

The subsystem has three layers:

* :mod:`repro.lp.model` — the :class:`LinearProgram` container over
  exact :class:`fractions.Fraction` arithmetic;
* :mod:`repro.lp.simplex` / :mod:`repro.lp.branch_bound` — a bounded
  -variable two-phase simplex and a group-branching branch-and-bound,
  both pure stdlib, whose verdicts are proofs rather than tolerance
  calls;
* :mod:`repro.lp.formulation` — the time-indexed scheduling formulation
  (assignment / precedence / per-cycle power rows over ASAP/ALAP
  mobility windows) with register pressure as a first-class constraint
  dimension in two memory models.

Registering this package adds the ``ilp`` strategy to the scheduler
registry: a second exact oracle next to ``exact``, minus the hard size
cap, plus the ability to honour a task's ``register_budget``.
"""

from .branch_bound import LIMIT, BranchBoundResult, solve_milp
from .formulation import (
    MEMORY_MODELS,
    ILPInfeasibleError,
    ILPLimitError,
    ILPScheduleError,
    ScheduleModel,
    build_schedule_model,
    ilp_schedule,
    minimum_registers,
    schedule_register_usage,
    solve_model,
)
from .model import LinearProgram, LPError, as_fraction
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, SimplexSolution, solve_lp

__all__ = [
    "LinearProgram",
    "LPError",
    "as_fraction",
    "SimplexSolution",
    "solve_lp",
    "BranchBoundResult",
    "solve_milp",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "LIMIT",
    "MEMORY_MODELS",
    "ILPScheduleError",
    "ILPInfeasibleError",
    "ILPLimitError",
    "ScheduleModel",
    "build_schedule_model",
    "solve_model",
    "ilp_schedule",
    "minimum_registers",
    "schedule_register_usage",
]


# --------------------------------------------------------------------------- #
# Strategy registration
# --------------------------------------------------------------------------- #
from ..registries import SCHEDULERS as _SCHEDULERS


@_SCHEDULERS.register("ilp")
def _ilp_strategy(ctx) -> None:
    """Exact time-indexed ILP scheduling (optionally register-budgeted)."""
    ctx.schedule = ilp_schedule(
        ctx.cdfg,
        ctx.delays,
        ctx.powers,
        ctx.power_constraint,
        ctx.require_latency("ilp"),
        register_budget=ctx.task.register_budget,
        memory_model=ctx.options.ilp_memory_model,
        node_limit=ctx.options.ilp_node_limit,
        label=ctx.strategy_label("ilp"),
    )


#: The ilp strategy is the only scheduler that enforces a task's
#: register budget; the pipeline rejects budgeted tasks for the others.
_ilp_strategy.supports_register_budget = True
