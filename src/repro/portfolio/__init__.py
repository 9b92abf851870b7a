"""repro.portfolio — race strategy subsets, return the canonical winner.

No single strategy dominates power-constrained synthesis: the combined
engine is usually fast and good, the ILP is complete but slow, the
heuristics win on particular graph shapes.  A *portfolio* task
(``scheduler="portfolio"``) races a configured subset of concrete
(scheduler, binder) pairs and returns one record:

* **Race mode** (default) returns the canonically-first certified-
  feasible contender — canonical order being the configured strategies
  tuple, which is hashed into the task's content address.  Completion
  order and parallelism affect only time-to-answer, never the answer
  (see :mod:`repro.portfolio.runner`).
* **Deadline mode** (``portfolio_deadline_s``) collects certified
  results until the deadline and returns the best-area one.

The pieces:

* :mod:`~repro.portfolio.config` — :class:`PortfolioConfig`, the
  reserved option keys, :func:`portfolio_task` / :func:`with_deadline`
  and :func:`~repro.portfolio.config.pair_label`.
* :mod:`~repro.portfolio.executors` — the injectable execution seam:
  real process workers, and the scripted executor + manual clock that
  make every race ordering deterministic in tests.
* :mod:`~repro.portfolio.runner` — :class:`PortfolioRunner` /
  :func:`run_portfolio`, the decision rules and cache integration.

``portfolio`` also registers in the scheduler registry so tasks naming
it validate everywhere tasks are parsed; the registered callable only
redirects — portfolio tasks execute through
:func:`repro.api.batch.run_task`, which dispatches to the runner.
"""

from __future__ import annotations

from ..api.task import PORTFOLIO_SCHEDULER, TaskError
from ..registries import SCHEDULERS
from .config import (
    DEFAULT_STRATEGIES,
    PortfolioConfig,
    portfolio_task,
    with_deadline,
)
from .executors import (
    Contender,
    ManualClock,
    ProcessExecutor,
    RaceExecutor,
    ScriptedExecutor,
    default_executor,
)
from .runner import (
    DEADLINE_ERROR,
    EXECUTION_ERROR,
    ContenderResult,
    PortfolioOutcome,
    PortfolioRunner,
    run_portfolio,
)

__all__ = [
    "Contender",
    "ContenderResult",
    "DEADLINE_ERROR",
    "DEFAULT_STRATEGIES",
    "EXECUTION_ERROR",
    "ManualClock",
    "PortfolioConfig",
    "PortfolioOutcome",
    "PortfolioRunner",
    "ProcessExecutor",
    "RaceExecutor",
    "ScriptedExecutor",
    "default_executor",
    "portfolio_task",
    "run_portfolio",
    "with_deadline",
]


@SCHEDULERS.register(PORTFOLIO_SCHEDULER)
def _portfolio_scheduler(ctx) -> None:
    """Registry placeholder: portfolio tasks run through ``run_task``.

    The registration makes ``scheduler="portfolio"`` a known name wherever
    tasks are validated (CLI, serve admission, fuzz samplers), but a race
    cannot run *inside* one pipeline pass — it spans several pipelines.
    Reaching this callable means someone built a Pipeline around a
    portfolio task directly.
    """
    raise TaskError(
        "the 'portfolio' scheduler is a meta-strategy: run the task through "
        "repro.api.run_task / run_batch (or repro.portfolio.run_portfolio), "
        "not through a Pipeline pass"
    )


# Pipeline pass gating: no module selection needed (contenders select for
# themselves) and register budgets are accepted (each contender decides
# whether it can honour them).
_portfolio_scheduler.needs_selection = False
_portfolio_scheduler.supports_register_budget = True
