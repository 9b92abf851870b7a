"""The portfolio race runner: canonical decisions over a contender race.

One race takes a ``scheduler="portfolio"`` task, fans its contender
subset out over a :class:`~repro.portfolio.executors.RaceExecutor`, gates
every completion through the certificate check (each contender runs with
``verify=True``), and returns a single :class:`~repro.api.batch.TaskResult`
shaped exactly like any other record — plus a ``winner`` naming the
strategy pair that produced it.

The decision rule is **canonical**, not first-past-the-post: the winner
is the canonically-*first* certified-feasible contender, where canonical
order is the configured ``portfolio_strategies`` tuple — the order hashed
into the task's content address.  The race resolves as soon as contender
``i`` is certified feasible and every contender before it has a terminal
outcome; contenders after the earliest certified one are cancelled (their
result can no longer matter).  Every contender launches at once, in
canonical order.  Parallelism, completion order and crashes of later
contenders therefore change only how *fast* the answer arrives, never
which answer it is — the property that keeps a content-addressed cache
coherent.

``deadline_s`` switches the rule: collect certified results until the
deadline (or until everyone is terminal) and return the best-area one,
ties broken by canonical index.  A completion that arrives after the
deadline on the race clock is never a winner, even when an executor
that cannot interrupt its contenders delivers it.  A deadline that
expires with nothing certified yields an infeasible
``PortfolioDeadlineError`` record, which is never cached — it reflects
the deadline, not the spec.

Outcome classification of an all-infeasible race: if every contender
returned a genuine verdict, the portfolio verdict is infeasible with the
canonical-first contender's ``error_type`` and is cacheable; if any
contender *errored* (``WorkerCrash`` included), the aggregate is a
non-cacheable ``PortfolioExecutionError`` — a crash is missing evidence,
not evidence of infeasibility.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..api.batch import TaskResult
from ..api.task import SynthesisTask, TaskError
from .config import PortfolioConfig, pair_label
from .executors import Contender, RaceExecutor, default_executor

__all__ = [
    "ContenderResult",
    "PortfolioOutcome",
    "PortfolioRunner",
    "run_portfolio",
]

#: ``error_type`` of a deadline that expired with nothing certified.
DEADLINE_ERROR = "PortfolioDeadlineError"

#: ``error_type`` of an all-infeasible race tainted by contender errors.
EXECUTION_ERROR = "PortfolioExecutionError"

#: Record-dict fields copied from a winning contender onto the portfolio
#: record (everything scalar except identity/bookkeeping fields).
_COPIED_FIELDS = (
    "area",
    "fu_area",
    "peak_power",
    "latency",
    "registers",
    "backtracks",
)


def _classify(outcome: Optional[Dict[str, Any]]) -> str:
    """``pending`` / ``feasible`` / ``infeasible`` / ``error`` of one outcome."""
    if outcome is None:
        return "pending"
    if outcome.get("feasible") is True:
        return "feasible"
    if "feasible" in outcome:
        return "infeasible"
    return "error"


@dataclass
class ContenderResult:
    """One contender's fate in a race.

    Attributes:
        contender: The entrant (index, label, concrete task).
        outcome: Its record/error dict, ``None`` while pending.
        cancelled: True when the runner stopped it as a loser.
        from_cache: True when the outcome was answered from the cache
            without launching.
    """

    contender: Contender
    outcome: Optional[Dict[str, Any]] = None
    cancelled: bool = False
    from_cache: bool = False

    @property
    def status(self) -> str:
        """``feasible`` / ``infeasible`` / ``error`` / ``cancelled`` / ``pending``."""
        if self.outcome is None:
            return "cancelled" if self.cancelled else "pending"
        return _classify(self.outcome)

    @property
    def terminal(self) -> bool:
        return self.outcome is not None

    def to_dict(self) -> Dict[str, Any]:
        """The per-contender summary shipped on :class:`PortfolioOutcome`."""
        summary: Dict[str, Any] = {
            "label": self.contender.label,
            "status": self.status,
            "from_cache": self.from_cache,
        }
        if self.outcome is not None:
            for key in ("area", "elapsed", "error_type"):
                if self.outcome.get(key) is not None:
                    summary[key] = self.outcome[key]
        return summary


@dataclass
class PortfolioOutcome:
    """Everything one race produced.

    Attributes:
        record: The portfolio-level :class:`~repro.api.batch.TaskResult`
            (its ``task`` is the portfolio task; its ``winner`` names the
            winning pair, if any).
        winner: The winning pair label, ``None`` for infeasible races.
        cacheable: Whether the record is a true verdict on the spec —
            deadline expiries and crash-tainted infeasibles are not.
        deadline_expired: True when a ``deadline_s`` ran out before a
            certified result arrived.
        first_certified_s: Race-clock seconds until the first certified
            completion *arrived*, ``None`` when nothing certified.
        elapsed: Race-clock seconds until the decision.
        contenders: Per-contender summaries, in canonical order.
    """

    record: TaskResult
    winner: Optional[str] = None
    cacheable: bool = False
    deadline_expired: bool = False
    first_certified_s: Optional[float] = None
    elapsed: float = 0.0
    contenders: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (what the CLI prints with ``--explain``)."""
        return {
            "record": self.record.to_dict(),
            "winner": self.winner,
            "cacheable": self.cacheable,
            "deadline_expired": self.deadline_expired,
            "first_certified_s": self.first_certified_s,
            "elapsed": self.elapsed,
            "contenders": [dict(entry) for entry in self.contenders],
        }


class PortfolioRunner:
    """Drives one race over an injectable executor and clock.

    Every effect the runner has on the outside world flows through the
    :class:`~repro.portfolio.executors.RaceExecutor` seam and the cache,
    and every time measurement through ``clock`` — which is what makes
    all race orderings (wins, ties, crashes, deadline expiry mid-flight)
    drivable deterministically in tests, with zero sleeps.
    """

    def __init__(
        self,
        task: SynthesisTask,
        *,
        cache=None,
        executor: Optional[RaceExecutor] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.task = task
        self.cache = cache
        self.config = PortfolioConfig.from_task(task)
        self.clock = clock if clock is not None else time.monotonic
        self.executor = executor if executor is not None else default_executor(cache)
        pairs = self.config.resolved_pairs(task.binder)
        _, engine_overrides = PortfolioConfig.from_task_options(task.options)
        self.slots: List[ContenderResult] = []
        for index, (scheduler, binder) in enumerate(pairs):
            contender_task = dataclasses.replace(
                task,
                scheduler=scheduler,
                binder=binder,
                options=dict(engine_overrides),
            )
            self.slots.append(
                ContenderResult(
                    Contender(
                        index=index,
                        label=pair_label(scheduler, binder),
                        scheduler=scheduler,
                        binder=binder,
                        task=contender_task,
                    )
                )
            )

    # ------------------------------------------------------------------ #
    # The race
    # ------------------------------------------------------------------ #
    def run(self) -> PortfolioOutcome:
        """Race the contenders and return the portfolio outcome."""
        started = self.clock()
        first_certified: Optional[float] = None

        # The cache pre-answers whatever it can: a warm concrete-strategy
        # record is a completion that never needs a launch, which is what
        # makes portfolio wins strategy-exact on re-lookup.
        if self.cache is not None and getattr(self.cache, "read", False):
            for slot in self.slots:
                hit = self.cache.get(slot.contender.task)
                if hit is not None:
                    slot.outcome = hit.to_dict()
                    slot.from_cache = True
                    if slot.status == "feasible" and first_certified is None:
                        first_certified = 0.0

        deadline = self.config.deadline_s
        deadline_expired = False

        def cancel_losers() -> None:
            """In race mode, contenders after the earliest certified one lose."""
            if deadline is not None:
                return
            certified = [s.contender.index for s in self.slots if s.status == "feasible"]
            if not certified:
                return
            earliest = min(certified)
            for slot in self.slots:
                if (
                    slot.contender.index > earliest
                    and not slot.terminal
                    and not slot.cancelled
                ):
                    slot.cancelled = True
                    self.executor.cancel(slot.contender)

        try:
            cancel_losers()
            if not self._decided():
                for slot in self.slots:
                    if not slot.terminal and not slot.cancelled:
                        self.executor.launch(slot.contender)
            while not self._decided():
                timeout: Optional[float] = None
                if deadline is not None:
                    timeout = deadline - (self.clock() - started)
                    if timeout <= 0:
                        deadline_expired = True
                        break
                before_poll = self.clock()
                completion = self.executor.poll(timeout)
                if completion is None:
                    if deadline is not None and self.clock() > before_poll:
                        continue  # the deadline check above decides expiry
                    break  # the executor ran dry without consuming time
                index, outcome = completion
                slot = self.slots[index]
                if slot.cancelled:  # a straggler answer from a loser
                    continue
                if deadline is not None and self.clock() - started > deadline:
                    # delivered late by an executor that cannot interrupt
                    # its contenders: not a winner, and the race is over
                    deadline_expired = True
                    break
                slot.outcome = outcome
                if slot.status == "feasible" and first_certified is None:
                    first_certified = self.clock() - started
                cancel_losers()
            # whoever is still running past the decision/deadline loses
            for slot in self.slots:
                if not slot.terminal and not slot.cancelled:
                    slot.cancelled = True
                    self.executor.cancel(slot.contender)
        finally:
            self.executor.close()

        elapsed = self.clock() - started
        return self._conclude(
            elapsed=elapsed,
            first_certified=first_certified,
            deadline_expired=deadline_expired,
        )

    def _decided(self) -> bool:
        """Whether the decision rule already has its answer."""
        if self.config.deadline_s is not None:
            # deadline mode collects until expiry or everyone is terminal
            return all(s.terminal or s.cancelled for s in self.slots)
        for slot in self.slots:  # canonical order
            status = slot.status
            if status == "feasible":
                return True
            if status == "pending":
                return False
        return True  # everyone terminal (or cancelled), nobody feasible

    def _winner_slot(self) -> Optional[ContenderResult]:
        certified = [s for s in self.slots if s.status == "feasible"]
        if not certified:
            return None
        if self.config.deadline_s is None:
            # canonical rule: first certified contender in config order
            for slot in self.slots:
                if slot.status == "feasible":
                    return slot
            return None
        # deadline rule: best area, ties to the canonical-first (a feasible
        # outcome without an area sorts last rather than crashing the pick)
        def area_key(slot: ContenderResult):
            area = (slot.outcome or {}).get("area")
            return (area is None, area if area is not None else 0.0, slot.contender.index)

        return min(certified, key=area_key)

    def _conclude(
        self,
        *,
        elapsed: float,
        first_certified: Optional[float],
        deadline_expired: bool,
    ) -> PortfolioOutcome:
        winner = self._winner_slot()
        if winner is not None:
            outcome = winner.outcome or {}
            record = TaskResult(
                task=self.task,
                feasible=True,
                elapsed=elapsed,
                winner=winner.contender.label,
                **{name: outcome.get(name) for name in _COPIED_FIELDS if name != "backtracks"},
                backtracks=int(outcome.get("backtracks") or 0),
            )
            # File the winner under its own concrete-strategy address too
            # (idempotent for executors that already cached it) so warm
            # lookups stay strategy-exact.
            if (
                self.cache is not None
                and getattr(self.cache, "write", False)
                and not winner.from_cache
                and not outcome.get("cached")
            ):
                self.cache.put(
                    winner.contender.task,
                    _contender_record(winner.contender.task, outcome),
                )
            return PortfolioOutcome(
                record=record,
                winner=winner.contender.label,
                cacheable=True,
                deadline_expired=False,
                first_certified_s=first_certified,
                elapsed=elapsed,
                contenders=[slot.to_dict() for slot in self.slots],
            )

        lines = [
            f"{slot.contender.label}: "
            + (
                str((slot.outcome or {}).get("error"))
                if slot.terminal
                else slot.status
            )
            for slot in self.slots
        ]
        if deadline_expired:
            error_type = DEADLINE_ERROR
            cacheable = False
            header = (
                f"portfolio deadline of {self.config.deadline_s}s expired with "
                "no certified result"
            )
        else:
            errored = [s for s in self.slots if s.status in ("error", "cancelled", "pending")]
            if errored:
                error_type = EXECUTION_ERROR
                cacheable = False
                header = (
                    f"{len(errored)} of {len(self.slots)} portfolio contenders "
                    "failed to produce a verdict"
                )
            else:
                # every contender returned a true verdict: the portfolio
                # verdict is infeasible, typed by the canonical-first one
                error_type = (
                    (self.slots[0].outcome or {}).get("error_type") or "SynthesisError"
                )
                cacheable = True
                header = f"all {len(self.slots)} portfolio contenders are infeasible"
        record = TaskResult(
            task=self.task,
            feasible=False,
            error="\n".join([header] + lines),
            error_type=error_type,
            elapsed=elapsed,
        )
        return PortfolioOutcome(
            record=record,
            winner=None,
            cacheable=cacheable,
            deadline_expired=deadline_expired,
            first_certified_s=first_certified,
            elapsed=elapsed,
            contenders=[slot.to_dict() for slot in self.slots],
        )


def _contender_record(task: SynthesisTask, outcome: Dict[str, Any]) -> TaskResult:
    """Rebuild a :class:`TaskResult` for one contender from its outcome dict."""
    return TaskResult(
        task=task,
        feasible=bool(outcome.get("feasible")),
        area=outcome.get("area"),
        fu_area=outcome.get("fu_area"),
        peak_power=outcome.get("peak_power"),
        latency=outcome.get("latency"),
        registers=outcome.get("registers"),
        backtracks=int(outcome.get("backtracks") or 0),
        error=outcome.get("error"),
        error_type=outcome.get("error_type"),
        elapsed=float(outcome.get("elapsed") or 0.0),
    )


def run_portfolio(
    task: SynthesisTask,
    *,
    cache=None,
    executor: Optional[RaceExecutor] = None,
    clock: Optional[Callable[[], float]] = None,
) -> PortfolioOutcome:
    """Race one portfolio task; the functional face of :class:`PortfolioRunner`.

    Args:
        task: A ``scheduler="portfolio"`` task.
        cache: A :class:`~repro.explore.cache.ResultCache`.  Pre-answers
            contenders it already holds, receives the winner's record
            under its concrete-strategy address.
        executor: The race seam; defaults to
            :func:`~repro.portfolio.executors.default_executor` (one
            process worker per contender, losers killed).
        clock: Monotonic-seconds callable; defaults to
            :func:`time.monotonic`.

    Raises:
        TaskError: When the task is not a portfolio task or its config
            is malformed.
    """
    if task.scheduler != "portfolio":
        raise TaskError(
            f"run_portfolio requires a portfolio task, got scheduler={task.scheduler!r}"
        )
    runner = PortfolioRunner(
        task,
        cache=cache,
        executor=executor,
        clock=clock,
    )
    return runner.run()
