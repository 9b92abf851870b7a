"""Differential cross-checking of every registered strategy pair.

:func:`cross_check` runs one :class:`~repro.api.task.SynthesisTask`
through every scheduler × binder combination from the registries and
certifies each result with
:func:`~repro.verify.certificate.check_certificate`.  Every pair runs
with the task's ``verify`` field forced **off**, so the pipeline never
pre-screens a result — this harness is the sole certification authority
and sees every raw outcome (with ``verify`` on, the pipeline's own deep
check would convert a buggy result into a typed infeasibility and mask
exactly the bugs this harness exists to catch).

Certificate violations are then *classified* per strategy:

* a ``power`` violation from a scheduler that never promised to honour
  the budget (``asap``/``alap``/``list``/``force_directed``, and the
  best-effort ``two_step``) — likewise a ``latency`` violation from a
  boundless scheduler (``asap``, ``pasap``) — is the documented
  incompleteness of that strategy: the outcome is *reclassified as
  infeasible* (matching the semantics of running the task with its
  ``verify`` gate on) and is not a harness violation;
* every other violation — structural kinds (binding, registers,
  interconnect, …) from anyone, or a constraint kind from a strategy in
  :data:`POWER_GUARANTEEING` / :data:`LATENCY_GUARANTEEING` — is a bug
  and fails the cross-check.  An *infeasible* outcome whose error is a
  ``CertificateError`` is flagged too: with the pipeline gate off, only
  a self-checking strategy (the engine verifies its own result) can
  produce one, and the engine guarantees every contract.

The second invariant is **soundness vs. the complete schedulers**:
``exact`` (exhaustive search) and ``ilp`` (exact integer programming)
both decide feasibility over the *same* module selection the other
classical schedulers use, so "a complete scheduler says infeasible"
while another classical strategy holds a certified witness means one of
the two is buggy.  Capacity verdicts (``ExactSizeError``,
``ILPLimitError``, ``UnsupportedConstraintError``) are recognised *by
type* and are never treated as infeasibility evidence.

The third invariant is **oracle agreement**: ``exact`` and ``ilp`` are
independent implementations of the same optimization problem, so when
both produce a verdict they must agree on feasibility — and on the
optimal makespan when both are feasible.  Any split is a bug in one of
the two exact engines.

The fourth invariant is **portfolio agreement**: when a ``portfolio``
meta-strategy participates (it must be listed explicitly — see
:data:`META_SCHEDULERS`), its verdict is cross-examined against the
standalone runs of the very strategies it raced.  A feasible portfolio
record must be reproducible by its named winner (same feasibility, same
area); an infeasible portfolio verdict must not be contradicted by a
certified witness from its own contender subset.  Disagreement is a
``differential-oracle`` violation.

What is deliberately **not** an invariant is feasibility agreement
between heuristics: pasap/palap/two_step are incomplete by design (the
paper says so), and the combined ``engine`` upgrades modules so it can be
feasible where every selection-bound scheduler is not.  Disagreements are
*recorded* on the report (``feasibility``/``disagreement``) for fuzzing
statistics, but only the invariants above produce violations.

Every run fans through :func:`repro.api.batch.run_batch` (sequential,
full results kept — certification needs the datapath).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api.batch import run_batch
from ..api.task import SynthesisTask
from ..portfolio.config import SELF_BINDING_SCHEDULERS, pair_label
from ..registries import BINDERS, SCHEDULERS
from .certificate import CertificateReport, Violation, check_certificate

#: Meta-strategies that race *other* schedulers rather than scheduling
#: themselves.  Excluded from the default all-registered pair expansion
#: (a portfolio inside a cross-check would re-run the very pairs the
#: harness already runs); included only when explicitly listed — the
#: fuzzer does so for a sampled fraction of cases, and the portfolio
#: verdict is then cross-examined against its own winning strategy.
META_SCHEDULERS = ("portfolio",)

#: Schedulers that run without a latency bound (everything else is
#: skipped when the task has ``latency=None``).
BOUNDLESS_SCHEDULERS = ("asap", "pasap")

#: Schedulers whose infeasibility verdict is authoritative for the module
#: selection they were given (exhaustive search / exact optimization,
#: not a heuristic).
COMPLETE_SCHEDULERS = ("exact", "ilp")

#: Schedulers that *guarantee* the power budget when they succeed — a
#: power violation from one of these is a bug, not obliviousness.
#: (two_step is best-effort: it records whether the repair met P.)
POWER_GUARANTEEING = ("pasap", "palap", "exact", "ilp", "engine")

#: Schedulers that *guarantee* the latency bound when they succeed.
#: (pasap stretches without a bound; the list scheduler's latency is a
#: hint; asap simply ignores T.)
LATENCY_GUARANTEEING = ("alap", "force_directed", "palap", "exact", "ilp", "engine")

#: Schedulers that *guarantee* a task's register budget when they succeed.
#: (The pipeline rejects budgeted tasks for everyone else up front.)
REGISTER_GUARANTEEING = ("ilp",)

#: Error types that are *capacity* verdicts, not scheduling verdicts: the
#: strategy declined to decide (size cap, node budget, unsupported
#: constraint dimension).  Recognised structurally by exception type name
#: so the harness never has to pattern-match error prose.
NON_VERDICT_ERRORS = frozenset(
    {
        "ExactSizeError",
        "ILPLimitError",
        "UnsupportedConstraintError",
        # A portfolio that expired or whose contenders failed to produce
        # verdicts abstains: it never decided feasibility.
        "PortfolioDeadlineError",
        "PortfolioExecutionError",
    }
)

#: Portfolio abstentions are never cacheable (see repro.portfolio.runner)
#: — keep them out of the harness's deferred cache writes too.
_PORTFOLIO_ABSTENTIONS = frozenset(
    {"PortfolioDeadlineError", "PortfolioExecutionError"}
)

#: Violation kinds that express a missed (T, P, R) constraint rather
#: than a structurally broken result.
_CONSTRAINT_KINDS = frozenset({"latency", "power", "register-budget"})


def _tolerated_kinds(scheduler: str) -> frozenset:
    """Constraint kinds ``scheduler`` never promised to honour."""
    tolerated = set()
    if scheduler not in POWER_GUARANTEEING:
        tolerated.add("power")
    if scheduler not in LATENCY_GUARANTEEING:
        tolerated.add("latency")
    if scheduler not in REGISTER_GUARANTEEING:
        tolerated.add("register-budget")
    return frozenset(tolerated)


def strategy_pairs(
    schedulers: Optional[Sequence[str]] = None,
    binders: Optional[Sequence[str]] = None,
    *,
    needs_latency: bool = True,
) -> List[Tuple[str, str]]:
    """Every (scheduler, binder) pair the registries offer for one task.

    Self-binding schedulers (``engine``) contribute a single pair with
    the default binder name — the binder never runs for them.  With
    ``needs_latency=False`` (a task without a latency bound) only the
    boundless schedulers are kept.

    ``None`` means "all registered"; an explicit empty sequence means
    exactly that — no pairs (the fuzzer relies on the distinction when a
    case-level filter empties the configured scheduler set).
    """
    scheduler_names = SCHEDULERS.names() if schedulers is None else list(schedulers)
    binder_names = BINDERS.names() if binders is None else list(binders)
    pairs: List[Tuple[str, str]] = []
    for scheduler in scheduler_names:
        if schedulers is None and scheduler in META_SCHEDULERS:
            continue
        if not needs_latency and scheduler not in BOUNDLESS_SCHEDULERS:
            continue
        if scheduler in SELF_BINDING_SCHEDULERS:
            # The binder field is inert here; any registered name does.
            inert = binder_names[0] if binder_names else BINDERS.names()[0]
            pairs.append((scheduler, inert))
        else:
            pairs.extend((scheduler, binder) for binder in binder_names)
    return pairs


@dataclass
class StrategyOutcome:
    """What one (scheduler, binder) pair did with the task.

    Attributes:
        scheduler: Scheduler strategy name.
        binder: Binder strategy name (inert for self-binding schedulers).
        feasible: Whether the pair produced a result.
        certified: Certificate verdict for feasible outcomes (``None``
            when infeasible, or when served from a scalar cache record).
        certificate: The full report behind ``certified``.
        error: Failure message for infeasible outcomes.
        error_type: Exception class name for infeasible outcomes.
        area / peak_power / latency: Scalar metrics of feasible outcomes.
        optimal_latency: The provably optimal makespan claimed by an
            exact scheduler (``exact``/``ilp`` metadata; ``None``
            elsewhere) — what the oracle-agreement invariant compares.
        cached: The outcome was answered by a result cache (scalars only).
        elapsed: Wall-clock seconds of the underlying run.
        winner: For a ``portfolio`` outcome: the pair label of the
            contender whose certified result the race returned.
        portfolio_subset: For a ``portfolio`` outcome: the canonical pair
            labels of the contenders it raced — the scope of the
            portfolio-agreement invariant.
    """

    scheduler: str
    binder: str
    feasible: bool
    certified: Optional[bool] = None
    certificate: Optional[CertificateReport] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    area: Optional[float] = None
    peak_power: Optional[float] = None
    latency: Optional[int] = None
    optimal_latency: Optional[int] = None
    cached: bool = False
    elapsed: float = 0.0
    winner: Optional[str] = None
    portfolio_subset: Optional[List[str]] = None

    @property
    def is_verdict(self) -> bool:
        """True when this outcome decides feasibility (capacity errors don't)."""
        return self.feasible or self.error_type not in NON_VERDICT_ERRORS

    @property
    def pair(self) -> str:
        return f"{self.scheduler}+{self.binder}"

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "scheduler": self.scheduler,
            "binder": self.binder,
            "feasible": self.feasible,
            "certified": self.certified,
            "error": self.error,
            "error_type": self.error_type,
            "area": self.area,
            "peak_power": self.peak_power,
            "latency": self.latency,
            "optimal_latency": self.optimal_latency,
            "cached": self.cached,
            "elapsed": self.elapsed,
        }
        if self.winner is not None:
            data["winner"] = self.winner
        if self.portfolio_subset is not None:
            data["portfolio_subset"] = list(self.portfolio_subset)
        if self.certificate is not None and not self.certificate.ok:
            data["certificate"] = self.certificate.to_dict()
        return data


@dataclass
class CrossCheckReport:
    """Differential outcome of one task across every strategy pair."""

    task: SynthesisTask
    outcomes: List[StrategyOutcome] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def feasibility(self) -> Dict[str, bool]:
        """Pair label → feasibility verdict."""
        return {outcome.pair: outcome.feasible for outcome in self.outcomes}

    @property
    def disagreement(self) -> bool:
        """True when the pairs split on feasibility (informational)."""
        verdicts = {outcome.feasible for outcome in self.outcomes}
        return len(verdicts) > 1

    def feasible_outcomes(self) -> List[StrategyOutcome]:
        return [outcome for outcome in self.outcomes if outcome.feasible]

    def describe(self) -> str:
        feasible = sum(1 for o in self.outcomes if o.feasible)
        lines = [
            f"cross-check {self.task.describe()}: "
            f"{feasible}/{len(self.outcomes)} pairs feasible"
            + (", split on feasibility" if self.disagreement else "")
        ]
        for outcome in self.outcomes:
            if outcome.feasible:
                verdict = {True: "certified", False: "VIOLATIONS", None: "cached"}[
                    outcome.certified
                ]
                lines.append(
                    f"  {outcome.pair}: area={outcome.area:g} ({verdict})"
                )
            else:
                lines.append(f"  {outcome.pair}: {outcome.error_type}")
        for violation in self.violations:
            lines.append(f"  !! {violation}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task": self.task.to_dict(),
            "ok": self.ok,
            "disagreement": self.disagreement,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "violations": [violation.to_dict() for violation in self.violations],
        }


def _pair_task(task: SynthesisTask, scheduler: str, binder: str) -> SynthesisTask:
    """The task re-spelled for one strategy pair, with ``verify`` forced OFF.

    The pipeline's internal gate runs the same certificate checker this
    harness runs; leaving it on would convert every buggy result into a
    typed infeasibility before the harness could see (and flag) it.
    Constraint misses by oblivious strategies are instead reclassified
    after certification (see the module docstring).
    """
    return dataclasses.replace(
        task, scheduler=scheduler, binder=binder, verify=False, options=dict(task.options)
    )


def cross_check(
    task: SynthesisTask,
    schedulers: Optional[Sequence[str]] = None,
    binders: Optional[Sequence[str]] = None,
    *,
    cache=None,
) -> CrossCheckReport:
    """Run ``task`` through every strategy pair; certify and cross-examine.

    Args:
        task: The task to differentiate (its own ``scheduler``/``binder``
            fields are ignored — every pair is substituted in).
        schedulers: Scheduler names to include (default: all registered).
        binders: Binder names to include (default: all registered).
        cache: Optional :class:`~repro.explore.cache.ResultCache`.  Hits
            come back as scalar records, which cannot be re-certified —
            their ``certified`` stays ``None`` — so only records that
            were feasible-and-certified (or infeasible) in the run that
            computed them are stored.

    Returns:
        A :class:`CrossCheckReport`; ``report.violations`` is non-empty
        when a feasible result failed certification or a classical
        strategy holds a certified witness the exact scheduler called
        infeasible.
    """
    pairs = strategy_pairs(
        schedulers, binders, needs_latency=task.latency is not None
    )
    report = CrossCheckReport(task=task)

    # Answer what the cache can, then fan the misses through run_batch
    # (sequential, full results kept — certification needs the datapath).
    slots: List[Tuple[StrategyOutcome, SynthesisTask, Any]] = []
    pending: List[SynthesisTask] = []
    pending_puts: List[Tuple[StrategyOutcome, SynthesisTask, Any]] = []
    for scheduler, binder in pairs:
        pair_task = _pair_task(task, scheduler, binder)
        outcome = StrategyOutcome(scheduler=scheduler, binder=binder, feasible=False)
        hit = cache.get(pair_task) if cache is not None else None
        if hit is not None:
            outcome.cached = True
        else:
            pending.append(pair_task)
        slots.append((outcome, pair_task, hit))
    computed = iter(run_batch(pending, keep_results=True))

    for outcome, pair_task, hit in slots:
        record = hit if hit is not None else next(computed)
        outcome.feasible = record.feasible
        outcome.error = record.error
        outcome.error_type = record.error_type
        outcome.area = record.area
        outcome.peak_power = record.peak_power
        outcome.latency = record.latency
        outcome.elapsed = record.elapsed
        if outcome.scheduler in META_SCHEDULERS:
            from ..portfolio.config import PortfolioConfig

            outcome.winner = getattr(record, "winner", None)
            config, _ = PortfolioConfig.from_task_options(pair_task.options)
            outcome.portfolio_subset = list(config.labels(outcome.binder))
        buggy = False
        if hit is not None and record.feasible:
            # Scalar cache hits cannot be re-certified, but a constraint
            # miss is visible in the stored metrics — reclassify exactly
            # as the cold run did so warm and cold reports agree.
            # (Structural violations never enter the cache, so a hit is
            # either fully certified or a constraint-only miss.)
            misses = _scalar_constraint_misses(task, record)
            if misses:
                outcome.feasible = False
                outcome.error_type = "CertificateError"
                outcome.error = (
                    "uncertified under the task constraints: " + ", ".join(misses)
                )
                outcome.area = None
                outcome.peak_power = None
                outcome.latency = None
        if record.feasible and record.result is not None:
            makespan = record.result.schedule.metadata.get("optimal_makespan")
            if makespan is not None:
                outcome.optimal_latency = int(makespan)
            certificate = check_certificate(record.result)
            outcome.certificate = certificate
            outcome.certified = certificate.ok
            if not certificate.ok:
                tolerated = _tolerated_kinds(outcome.scheduler)
                structural = [
                    v for v in certificate.violations if v.kind not in tolerated
                ]
                if structural:
                    # A broken result (or a broken promise): a bug.
                    buggy = True
                    for violation in structural:
                        report.violations.append(
                            Violation(
                                "certificate",
                                f"{outcome.pair}/{violation.subject}",
                                violation.message,
                                dict(violation.details, kind=violation.kind),
                            )
                        )
                else:
                    # Only constraint kinds the strategy never promised:
                    # the documented incompleteness — reclassify as
                    # infeasibility data (what running the task with its
                    # verify gate on would have reported).
                    outcome.feasible = False
                    outcome.error_type = "CertificateError"
                    outcome.error = (
                        "uncertified under the task constraints: "
                        + ", ".join(certificate.kinds())
                    )
                    outcome.area = None
                    outcome.peak_power = None
                    outcome.latency = None
        elif (
            not record.feasible
            and record.error_type == "CertificateError"
            and outcome.scheduler not in META_SCHEDULERS
        ):
            # With the pipeline gate off, only a self-checking strategy
            # (the engine verifies its own result) raises this — and the
            # engine guarantees every contract, so it is always a bug.
            # (A portfolio record relays the canonical-first contender's
            # error type; its contenders race with their gates *on*, so a
            # CertificateError there is an ordinary reclassified miss.)
            buggy = True
            report.violations.append(
                Violation(
                    "certificate",
                    outcome.pair,
                    f"strategy failed its own certification: {record.error}",
                )
            )
        if (
            not buggy
            and hit is None
            and record.error_type not in _PORTFOLIO_ABSTENTIONS
        ):
            pending_puts.append((outcome, pair_task, record))
        report.outcomes.append(outcome)

    implicated = _check_exact_soundness(report)
    implicated.extend(_check_oracle_agreement(report))
    implicated.extend(_check_portfolio_agreement(report))
    # A record that exposed a bug must never enter the cache — a later
    # --resume would silently serve the lie as scalars.  That includes
    # the certified witnesses of a soundness violation (a scalar hit
    # cannot be re-certified, so a resumed witness would no longer
    # qualify and the violation would vanish); hence writes happen only
    # here, after every invariant has run.  The *raw* record of a
    # reclassified constraint miss is cached: it is exactly what the
    # verify=False spec it is filed under produces.
    if cache is not None:
        implicated_ids = {id(outcome) for outcome in implicated}
        for outcome, pair_task, record in pending_puts:
            if id(outcome) not in implicated_ids:
                cache.put(pair_task, record)
    return report


def _scalar_constraint_misses(task: SynthesisTask, record) -> List[str]:
    """Constraint kinds a scalar record visibly misses (for cache hits)."""
    misses: List[str] = []
    if (
        task.latency is not None
        and record.latency is not None
        and record.latency > task.latency
    ):
        misses.append("latency")
    if (
        task.power_budget is not None
        and record.peak_power is not None
        and record.peak_power > task.power_budget + 1e-9
    ):
        misses.append("power")
    return misses


def _check_exact_soundness(report: CrossCheckReport) -> List[StrategyOutcome]:
    """Exact-infeasible + certified classical witness = a soundness bug.

    Only classical (selection-bound, non-self-binding) strategies count
    as witnesses: the combined engine upgrades modules, so its schedule
    is not a witness for the selection the exact search explored.

    Returns the witness outcomes implicated in a violation, so the
    caller can keep their records out of the cache (the exact side's
    infeasible record is safe to cache — its error text survives as
    scalars, so the check still fires against a resumed exact verdict).
    """
    exact_infeasible = [
        outcome
        for outcome in report.outcomes
        if outcome.scheduler in COMPLETE_SCHEDULERS
        and not outcome.feasible
        # A capacity rejection (size cap, node budget, unsupported
        # constraint) proves nothing about feasibility; only a genuine
        # verdict is authoritative.  Recognised by exception type, not
        # by matching error prose.
        and outcome.is_verdict
    ]
    if not exact_infeasible:
        return []
    witnesses = [
        outcome
        for outcome in report.outcomes
        if outcome.feasible
        and outcome.certified
        and outcome.scheduler not in COMPLETE_SCHEDULERS
        and outcome.scheduler not in SELF_BINDING_SCHEDULERS
    ]
    for witness in witnesses:
        report.violations.append(
            Violation(
                "differential-soundness",
                witness.pair,
                f"holds a certified result (area={witness.area:g}) although the "
                f"exact scheduler reported infeasibility "
                f"({exact_infeasible[0].error_type}: {exact_infeasible[0].error})",
                {"witness": witness.pair, "exact_error": exact_infeasible[0].error},
            )
        )
    return witnesses


def _check_oracle_agreement(report: CrossCheckReport) -> List[StrategyOutcome]:
    """The complete schedulers must agree with each other.

    ``exact`` and ``ilp`` are independent exact engines for the same
    optimization problem.  Whenever two of them produce verdicts for one
    task they must split neither on feasibility nor — when both are
    feasible — on the optimal makespan they claim.  Capacity outcomes
    (``is_verdict`` False) abstain.

    Returns the implicated outcomes so their records stay out of the
    cache (a resumed scalar hit could no longer testify).
    """
    by_scheduler: Dict[str, StrategyOutcome] = {}
    for outcome in report.outcomes:
        if outcome.scheduler in COMPLETE_SCHEDULERS and outcome.is_verdict:
            # Binder choice cannot change a scheduling verdict; one
            # representative outcome per scheduler suffices.
            by_scheduler.setdefault(outcome.scheduler, outcome)
    oracles = [by_scheduler[name] for name in COMPLETE_SCHEDULERS if name in by_scheduler]
    if len(oracles) < 2:
        return []
    implicated: List[StrategyOutcome] = []

    def implicate(*schedulers: str) -> None:
        implicated.extend(
            outcome
            for outcome in report.outcomes
            if outcome.scheduler in schedulers
        )

    reference = oracles[0]
    for other in oracles[1:]:
        if reference.feasible != other.feasible:
            feasible, infeasible = (
                (reference, other) if reference.feasible else (other, reference)
            )
            report.violations.append(
                Violation(
                    "differential-oracle",
                    f"{reference.scheduler}/{other.scheduler}",
                    f"complete schedulers split on feasibility: "
                    f"{feasible.scheduler} found a schedule, "
                    f"{infeasible.scheduler} proved infeasibility "
                    f"({infeasible.error_type}: {infeasible.error})",
                    {
                        "feasible": feasible.scheduler,
                        "infeasible": infeasible.scheduler,
                    },
                )
            )
            implicate(reference.scheduler, other.scheduler)
        elif (
            reference.feasible
            and reference.optimal_latency is not None
            and other.optimal_latency is not None
            and reference.optimal_latency != other.optimal_latency
        ):
            report.violations.append(
                Violation(
                    "differential-oracle",
                    f"{reference.scheduler}/{other.scheduler}",
                    f"complete schedulers disagree on the optimal makespan: "
                    f"{reference.scheduler} says {reference.optimal_latency}, "
                    f"{other.scheduler} says {other.optimal_latency}",
                    {
                        reference.scheduler: reference.optimal_latency,
                        other.scheduler: other.optimal_latency,
                    },
                )
            )
            implicate(reference.scheduler, other.scheduler)
    return implicated


def _check_portfolio_agreement(report: CrossCheckReport) -> List[StrategyOutcome]:
    """A portfolio verdict must agree with the strategies it raced.

    The portfolio is a *derived* oracle: its record is (by construction)
    the certified result of one concrete contender, so when the same
    cross-check also ran that contender standalone, the two must agree —
    a feasible portfolio whose named winner produced no certified result
    (or a different area) means the race returned something its winner
    cannot reproduce; an infeasible portfolio verdict contradicted by a
    certified witness *from its own contender subset* means the race
    dropped a feasible answer.  Abstentions on either side
    (:data:`NON_VERDICT_ERRORS`) prove nothing and are skipped.

    Returns the implicated outcomes so their records stay out of the
    cache.
    """
    portfolios = [o for o in report.outcomes if o.scheduler in META_SCHEDULERS]
    if not portfolios:
        return []
    by_label: Dict[str, StrategyOutcome] = {}
    for outcome in report.outcomes:
        if outcome.scheduler in META_SCHEDULERS:
            continue
        by_label.setdefault(pair_label(outcome.scheduler, outcome.binder), outcome)
    implicated: List[StrategyOutcome] = []
    for portfolio in portfolios:
        if portfolio.feasible:
            winner = by_label.get(portfolio.winner) if portfolio.winner else None
            if winner is None or not winner.is_verdict:
                continue
            if not winner.feasible:
                report.violations.append(
                    Violation(
                        "differential-oracle",
                        f"{portfolio.pair}/{portfolio.winner}",
                        f"portfolio won through {portfolio.winner} "
                        f"(area={portfolio.area:g}) but that strategy produced "
                        f"no certified result standalone "
                        f"({winner.error_type}: {winner.error})",
                        {"winner": portfolio.winner, "area": portfolio.area},
                    )
                )
                implicated.extend((portfolio, winner))
            elif (
                portfolio.area is not None
                and winner.area is not None
                and abs(portfolio.area - winner.area) > 1e-9
            ):
                report.violations.append(
                    Violation(
                        "differential-oracle",
                        f"{portfolio.pair}/{portfolio.winner}",
                        f"portfolio area {portfolio.area:g} disagrees with its "
                        f"winner {portfolio.winner} standalone "
                        f"(area={winner.area:g})",
                        {
                            "winner": portfolio.winner,
                            "portfolio_area": portfolio.area,
                            "winner_area": winner.area,
                        },
                    )
                )
                implicated.extend((portfolio, winner))
        elif portfolio.is_verdict:
            subset = set(portfolio.portfolio_subset or ())
            for label, outcome in by_label.items():
                if subset and label not in subset:
                    continue
                if outcome.feasible and outcome.certified:
                    report.violations.append(
                        Violation(
                            "differential-oracle",
                            f"{portfolio.pair}/{label}",
                            f"portfolio called the race infeasible "
                            f"({portfolio.error_type}: {portfolio.error}) but "
                            f"contender {label} holds a certified result "
                            f"(area={outcome.area:g})",
                            {"witness": label, "witness_area": outcome.area},
                        )
                    )
                    implicated.extend((portfolio, outcome))
    return implicated
