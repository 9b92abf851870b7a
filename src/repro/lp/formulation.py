"""Time-indexed ILP formulation of power-constrained scheduling.

This is the bridge between the paper's scheduling problem and the exact
MILP machinery in :mod:`repro.lp.simplex` / :mod:`repro.lp.branch_bound`:

* one binary ``x[op, t]`` per operation per cycle in its ASAP/ALAP
  mobility window (the same windows the classical schedulers compute);
* an **assignment** row per operation (each op starts exactly once);
* **precedence** rows per data edge — by default the *strong* cumulative
  form ``sum(x[consumer, <=c]) <= sum(x[producer, <=c - d])``, whose LP
  relaxation is dramatically tighter than the textbook start-time
  difference row (which remains as a compact fallback for big models);
* a **power** row per cycle bounding the summed draw of every operation
  that could be executing then, with the same ``max_power + tolerance``
  semantics the heuristic schedulers and the certificate checker use;
* optional **register-pressure** rows linearizing value liveness exactly
  the way :mod:`repro.verify.certificate` re-derives lifetimes (live
  from producer finish to one past the last consumer start), in two
  memory models:

  - ``optimistic`` — one register per live *value* (multi-consumer
    values share storage), matching the repo's left-edge allocator;
  - ``pessimistic`` — one register per live *edge* (every consumer
    holds its own copy), an upper bound for architectures without
    shared operand storage.

Solutions come back as ordinary :class:`~repro.scheduling.schedule.Schedule`
objects, so everything downstream (binding, certificates, differential
checking) applies unchanged.  Infeasibility verdicts are *proofs* — the
solver works in exact rational arithmetic — which is what qualifies the
``ilp`` strategy as a second exact oracle next to
:mod:`repro.scheduling.exact`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.cdfg import CDFG, CDFGError
from ..ir.operation import OpType
from ..scheduling.alap import alap_schedule
from ..scheduling.asap import asap_schedule
from ..scheduling.constraints import PowerConstraint
from ..scheduling.schedule import Schedule, ScheduleError
from .branch_bound import BranchBoundResult, solve_milp
from .model import LinearProgram, as_fraction
from .simplex import INFEASIBLE, OPTIMAL

#: Register-pressure linearizations offered by the formulation.
MEMORY_MODELS = ("optimistic", "pessimistic")

#: Above this many strong precedence rows the builder falls back to the
#: compact start-time-difference form (weaker relaxation, far fewer rows).
STRONG_ROW_CAP = 4000

#: Build-time guard: models with more start binaries than this are not
#: attempted (the verdict becomes "inconclusive", never "infeasible").
MAX_START_VARIABLES = 20_000


class ILPScheduleError(ScheduleError):
    """Base class for ILP scheduling failures."""


class ILPInfeasibleError(ILPScheduleError):
    """Proof that no schedule satisfies the constraints.

    Raised only on a genuine infeasibility certificate from the exact
    branch-and-bound (or a latency bound below the critical path) —
    never for resource exhaustion, which is :class:`ILPLimitError`.
    """


class ILPLimitError(ILPScheduleError):
    """The solve was inconclusive (node budget or model-size guard).

    Deliberately distinct from :class:`ILPInfeasibleError`: the
    differential harness must not treat an exhausted search as an
    infeasibility verdict.
    """


@dataclass
class ScheduleModel:
    """A built time-indexed model plus the maps needed to decode it.

    Attributes:
        program: The :class:`~repro.lp.model.LinearProgram`.
        starts: ``(operation, cycle) -> variable index`` for the binaries.
        windows: ``operation -> (asap, alap)`` start-cycle window.
        groups: SOS1 branching groups (one per operation with mobility),
            ready to pass to the branch-and-bound.
        makespan: Index of the continuous makespan variable.
        latency: The latency bound the model was built against.
        memory_model: Which register linearization was used (``None``
            when register pressure is not modelled).
    """

    program: LinearProgram
    starts: Dict[Tuple[str, int], int]
    windows: Dict[str, Tuple[int, int]]
    groups: List[List[Tuple[int, int]]]
    makespan: Optional[int] = None
    latency: int = 0
    memory_model: Optional[str] = None

    def decode_starts(self, values: Sequence[Fraction]) -> Dict[str, int]:
        """Start times from an integral solution vector."""
        starts: Dict[str, int] = {}
        for (name, cycle), index in self.starts.items():
            if values[index] == 1:
                starts[name] = cycle
        return starts


def _mobility_windows(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    latency: int,
) -> Dict[str, Tuple[int, int]]:
    """ASAP/ALAP start windows; raises ILPInfeasibleError below critical path."""
    asap = asap_schedule(cdfg, delays, powers, label="ilp.asap")
    try:
        alap = alap_schedule(cdfg, delays, powers, latency, label="ilp.alap")
    except CDFGError as exc:
        raise ILPInfeasibleError(
            f"no schedule for {cdfg.name!r} meets T={latency}: {exc}"
        ) from exc
    return {
        name: (asap.start(name), alap.start(name))
        for name in cdfg.topological_order()
    }


def _value_edges(cdfg: CDFG) -> Dict[str, List[str]]:
    """Producer -> consumers for every stored value.

    Mirrors the certificate checker's lifetime rule: outputs and virtual
    operations store nothing, and neither do values nobody consumes.
    Consumers of any type count (an OUTPUT consumer keeps the value live).
    """
    edges: Dict[str, List[str]] = {}
    for name in cdfg.topological_order():
        op = cdfg.operation(name)
        if op.optype is OpType.OUTPUT or op.is_virtual:
            continue
        consumers = list(cdfg.successors(name))
        if consumers:
            edges[name] = consumers
    return edges


def build_schedule_model(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    latency: int,
    *,
    register_budget: Optional[int] = None,
    memory_model: str = "optimistic",
) -> ScheduleModel:
    """Build the time-indexed MILP for one scheduling instance.

    Args:
        cdfg: Graph to schedule (every operation in topological order is
            modelled, virtual ones included, exactly like ``exact``).
        delays: Per-operation latency in cycles.
        powers: Per-operation per-cycle power draw.
        power: Per-cycle power budget (may be unbounded).
        latency: Cycle budget ``T``; every operation finishes by it.
        register_budget: When set, per-cycle register usage is capped at
            this count (a new constraint dimension).
        memory_model: ``"optimistic"`` (values share storage across
            consumers) or ``"pessimistic"`` (one register per live edge).

    Returns:
        A :class:`ScheduleModel` ready for :func:`solve_model`.

    Raises:
        ILPInfeasibleError: latency below the critical path.
        ILPLimitError: the model exceeds :data:`MAX_START_VARIABLES`.
        ValueError: unknown memory model.
    """
    if memory_model not in MEMORY_MODELS:
        raise ValueError(
            f"unknown memory model {memory_model!r}; use one of {MEMORY_MODELS}"
        )

    windows = _mobility_windows(cdfg, delays, powers, latency)
    size = sum(late - early + 1 for early, late in windows.values())
    if size > MAX_START_VARIABLES:
        raise ILPLimitError(
            f"time-indexed model for {cdfg.name!r} needs {size} start "
            f"variables (cap {MAX_START_VARIABLES})"
        )

    program = LinearProgram(f"ilp[{cdfg.name},T={latency}]")
    model = ScheduleModel(
        program=program,
        starts={},
        windows=windows,
        groups=[],
        latency=latency,
        memory_model=memory_model if register_budget is not None else None,
    )
    order = cdfg.topological_order()

    # --- start binaries + assignment rows + branching groups ---------- #
    for name in order:
        early, late = windows[name]
        group: List[Tuple[int, int]] = []
        for cycle in range(early, late + 1):
            index = program.add_binary(f"x[{name},{cycle}]")
            model.starts[(name, cycle)] = index
            group.append((index, cycle))
        program.add_constraint(
            {index: 1 for index, _ in group}, "==", 1, name=f"assign[{name}]"
        )
        if len(group) > 1:
            model.groups.append(group)

    def started_by(name: str, cycle: int) -> Dict[int, int]:
        """Coefficients of ``sum(x[name, t <= cycle])`` within the window."""
        early, late = windows[name]
        return {
            model.starts[(name, t)]: 1
            for t in range(early, min(late, cycle) + 1)
        }

    # --- precedence --------------------------------------------------- #
    strong_rows = 0
    for producer, consumer in cdfg.edges():
        early_c, late_c = windows[consumer]
        _, late_p = windows[producer]
        strong_rows += max(
            0, min(late_c, late_p + delays[producer] - 1) - early_c + 1
        )
    use_strong = strong_rows <= STRONG_ROW_CAP
    for producer, consumer in cdfg.edges():
        delay = delays[producer]
        early_c, late_c = windows[consumer]
        _, late_p = windows[producer]
        if use_strong:
            # Started-by-c consumer implies started-by-(c - d) producer.
            for cycle in range(early_c, min(late_c, late_p + delay - 1) + 1):
                row: Dict[int, int] = dict(started_by(consumer, cycle))
                for index, coefficient in started_by(producer, cycle - delay).items():
                    row[index] = row.get(index, 0) - coefficient
                program.add_constraint(
                    row, "<=", 0, name=f"prec[{producer}->{consumer}@{cycle}]"
                )
        else:
            row = {}
            for (name, cycle), index in model.starts.items():
                if name == consumer:
                    row[index] = row.get(index, 0) + cycle
                elif name == producer:
                    row[index] = row.get(index, 0) - cycle
            program.add_constraint(
                row, ">=", delay, name=f"prec[{producer}->{consumer}]"
            )

    # --- per-cycle power budget --------------------------------------- #
    if not power.is_unbounded:
        budget = as_fraction(power.max_power) + as_fraction(power.tolerance)
        draws = {
            name: as_fraction(powers[name])
            for name in order
            if powers[name] > 0 and delays[name] > 0
        }
        for cycle in range(latency):
            row = {}
            possible = Fraction(0)
            for name, draw in draws.items():
                early, late = windows[name]
                lo = max(early, cycle - delays[name] + 1)
                hi = min(late, cycle)
                if lo > hi:
                    continue
                possible += draw
                # Each (operation, start) is its own variable: no entry
                # of the row repeats.
                for t in range(lo, hi + 1):
                    row[model.starts[(name, t)]] = draw
            if possible <= budget:
                continue  # this cycle can never exceed the budget
            program.add_constraint(row, "<=", budget, name=f"power[{cycle}]")

    # --- register pressure -------------------------------------------- #
    if register_budget is not None:
        values = _value_edges(cdfg)
        # Per-edge liveness at cycle c: F_prod(c) - S_cons(c - 1), which
        # is 0/1 at every precedence-feasible integer point.
        for cycle in range(latency + 1):
            live: List[Tuple[str, List[str]]] = []
            terms = 0
            for producer, consumers in values.items():
                early_p, _ = windows[producer]
                if cycle < early_p + delays[producer]:
                    continue
                live_edges = [
                    consumer
                    for consumer in consumers
                    if cycle <= windows[consumer][1]
                ]
                if not live_edges:
                    continue
                live.append((producer, live_edges))
                if memory_model == "optimistic":
                    terms += 1
                else:
                    terms += len(live_edges)
            if not live:
                continue
            if terms <= register_budget:
                continue  # this cycle can never exceed the budget
            usage: Dict[int, int] = {}
            for producer, live_edges in live:
                finished = started_by(producer, cycle - delays[producer])
                if memory_model == "optimistic" and len(live_edges) > 1:
                    # One register serves every consumer: a continuous
                    # proxy v >= each edge's liveness joins the row once.
                    proxy = program.add_variable(
                        f"v[{producer},{cycle}]", lower=0, upper=1
                    )
                    for consumer in live_edges:
                        row = {proxy: -1}
                        for index, coefficient in finished.items():
                            row[index] = row.get(index, 0) + coefficient
                        for index, coefficient in started_by(consumer, cycle - 1).items():
                            row[index] = row.get(index, 0) - coefficient
                        program.add_constraint(
                            row, "<=", 0, name=f"live[{producer}->{consumer}@{cycle}]"
                        )
                    usage[proxy] = usage.get(proxy, 0) + 1
                else:
                    for consumer in live_edges:
                        for index, coefficient in finished.items():
                            usage[index] = usage.get(index, 0) + coefficient
                        for index, coefficient in started_by(consumer, cycle - 1).items():
                            usage[index] = usage.get(index, 0) - coefficient
            program.add_constraint(
                usage, "<=", register_budget, name=f"regs[{cycle}]"
            )

    # --- objective: minimize the makespan ----------------------------- #
    critical_end = max(
        windows[name][0] + delays[name] for name in order
    ) if order else 0
    makespan = program.add_variable(
        "makespan", lower=critical_end, upper=latency
    )
    model.makespan = makespan
    for name in cdfg.sinks():
        row = {makespan: 1}
        early, late = windows[name]
        for cycle in range(early, late + 1):
            if cycle:
                row[model.starts[(name, cycle)]] = -cycle
        program.add_constraint(
            row, ">=", delays[name], name=f"makespan[{name}]"
        )
    program.set_objective({makespan: 1})
    return model


def solve_model(model: ScheduleModel, *, node_limit: Optional[int] = None) -> BranchBoundResult:
    """Run a built model through the exact branch-and-bound."""
    return solve_milp(
        model.program, groups=model.groups, node_limit=node_limit, integral_objective=True
    )


def _constraint_summary(
    power: PowerConstraint, register_budget: Optional[int]
) -> str:
    parts = []
    if not power.is_unbounded:
        parts.append("the power budget")
    if register_budget is not None:
        parts.append(f"register budget {register_budget}")
    return " under " + " and ".join(parts) if parts else ""


def ilp_schedule(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    power: PowerConstraint,
    latency: int,
    *,
    register_budget: Optional[int] = None,
    memory_model: str = "optimistic",
    node_limit: Optional[int] = None,
    label: str = "ilp",
) -> Schedule:
    """Makespan-optimal schedule under ``(T, P[, R])`` by exact ILP.

    The drop-in counterpart of
    :func:`repro.scheduling.exact.exact_schedule`, with two upgrades: no
    hard size cap (scaling is governed by the model, not an operation
    count) and an optional register budget ``R``.

    Raises:
        ILPInfeasibleError: *proof* that no schedule meets the bounds.
        ILPLimitError: the search was inconclusive (node/size limits).
    """
    model = build_schedule_model(
        cdfg,
        delays,
        powers,
        power,
        latency,
        register_budget=register_budget,
        memory_model=memory_model,
    )
    outcome = solve_model(model, node_limit=node_limit)
    if outcome.status == INFEASIBLE:
        raise ILPInfeasibleError(
            f"no schedule for {cdfg.name!r} meets T={latency}"
            + _constraint_summary(power, register_budget)
        )
    if outcome.status != OPTIMAL:
        raise ILPLimitError(
            f"ilp solve for {cdfg.name!r} inconclusive after "
            f"{outcome.nodes} nodes (limit {node_limit})"
        )
    starts = model.decode_starts(outcome.values)
    metadata: Dict[str, object] = {
        "optimal_makespan": int(outcome.objective),
        "latency_bound": latency,
        "ilp_nodes": outcome.nodes,
        "ilp_iterations": outcome.iterations,
    }
    if register_budget is not None:
        metadata["register_budget"] = register_budget
        metadata["memory_model"] = memory_model
    return Schedule(
        cdfg=cdfg,
        start_times=starts,
        delays=dict(delays),
        powers=dict(powers),
        label=label,
        metadata=metadata,
    )


def schedule_register_usage(schedule: Schedule, memory_model: str = "optimistic") -> int:
    """Peak register usage of a concrete schedule under a memory model.

    ``optimistic`` matches :func:`repro.binding.register.register_lower_bound`
    (one register per live value); ``pessimistic`` counts one register per
    live *edge*, the quantity the pessimistic formulation constrains.
    """
    if memory_model not in MEMORY_MODELS:
        raise ValueError(
            f"unknown memory model {memory_model!r}; use one of {MEMORY_MODELS}"
        )
    if memory_model == "optimistic":
        from ..binding.register import register_lower_bound

        return register_lower_bound(schedule)
    events: Dict[int, int] = {}
    for producer, consumers in _value_edges(schedule.cdfg).items():
        birth = schedule.finish(producer)
        for consumer in consumers:
            death = max(schedule.start(consumer) + 1, birth + 1)
            events[birth] = events.get(birth, 0) + 1
            events[death] = events.get(death, 0) - 1
    peak = current = 0
    for cycle in sorted(events):
        current += events[cycle]
        peak = max(peak, current)
    return peak


def minimum_registers(
    cdfg: CDFG,
    delays: Mapping[str, int],
    powers: Mapping[str, float],
    latency: int,
    *,
    power: Optional[PowerConstraint] = None,
    memory_model: str = "optimistic",
    node_limit: Optional[int] = None,
) -> int:
    """Smallest peak register count any schedule achieves under ``T`` (and ``P``).

    The schedule-side analogue of
    :func:`repro.binding.register.register_lower_bound` (which bounds one
    *fixed* schedule): this optimizes over every legal schedule, so it is
    the true floor for register-budget feasibility at this latency.

    Implemented as a descending search over budgeted feasibility models
    rather than a direct min-max objective: each feasible solve tightens
    the incumbent to the register count its schedule *actually* uses, so
    the search performs a handful of cheap feasible solves plus exactly
    one infeasibility proof at the floor.  (The direct objective model is
    catastrophically degenerate for an exact tableau simplex.)

    Raises:
        ILPInfeasibleError: no schedule meets ``T`` (and ``P``) at all.
        ILPLimitError: the search was inconclusive (``node_limit``).
    """
    constraint = power if power is not None else PowerConstraint.unbounded()
    # Unbudgeted solve: proves (T, P) feasibility and seeds the incumbent.
    schedule = ilp_schedule(
        cdfg,
        delays,
        powers,
        constraint,
        latency,
        memory_model=memory_model,
        node_limit=node_limit,
        label="ilp.minreg",
    )
    best = schedule_register_usage(schedule, memory_model)
    while best > 0:
        model = build_schedule_model(
            cdfg,
            delays,
            powers,
            constraint,
            latency,
            register_budget=best - 1,
            memory_model=memory_model,
        )
        outcome = solve_model(model, node_limit=node_limit)
        if outcome.status == INFEASIBLE:
            break  # proof: best is the floor
        if outcome.status != OPTIMAL:
            raise ILPLimitError(
                f"register minimization for {cdfg.name!r} inconclusive at "
                f"budget {best - 1} after {outcome.nodes} nodes "
                f"(limit {node_limit})"
            )
        starts = model.decode_starts(outcome.values)
        tightened = schedule_register_usage(
            Schedule(
                cdfg=cdfg,
                start_times=starts,
                delays=dict(delays),
                powers=dict(powers),
                label="ilp.minreg",
            ),
            memory_model,
        )
        best = min(best - 1, tightened)
    return best
