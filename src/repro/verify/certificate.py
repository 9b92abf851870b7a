"""From-scratch certificate checking of synthesis results.

:func:`check_certificate` treats a
:class:`~repro.synthesis.result.SynthesisResult` as an untrusted
*certificate*: a claimed (schedule, allocation, binding, registers,
interconnect, area) tuple whose every property is re-derived here from
the CDFG and the technology library alone.  Nothing is taken from the
synthesizer's own bookkeeping — the per-cycle power profile, the value
lifetimes and the mux counts are recomputed independently, so a bug in a
scheduler or binder cannot hide behind the matching bug in its own
verification.

The checker returns a structured :class:`CertificateReport` listing every
:class:`Violation` found (empty = certified), rather than a bool, so the
differential harness and the ``repro fuzz`` CLI can serialize precise
failure reports.

Violation kinds (the ``Violation.kind`` vocabulary):

===================== ====================================================
``completeness``      an operation is missing a start time / delay / power
``precedence``        a consumer starts before its producer finishes
``latency``           an operation finishes after the latency bound ``T``
``power``             some cycle's total power exceeds the budget ``P``
``binding``           an operation is unbound, double-bound, bound to a
                      missing instance or to a module that cannot execute
                      its operation type
``module-mismatch``   the schedule's delay/power for an operation disagree
                      with the module of the instance it is bound to
``resource-conflict`` two operations overlap on one FU instance
``register-overlap``  two values sharing a register have overlapping
                      lifetimes (recomputed from the schedule)
``register-missing``  a live value (a scheduled producer with scheduled
                      consumers) is stored in no register, or twice
``register-budget``   the stored register count, or the peak number of
                      simultaneously live values re-derived from the
                      schedule, exceeds the register budget ``R``
``interconnect``      the stored mux counts disagree with the counts the
                      interconnect model yields for this binding
``area``              the reported area breakdown disagrees with the
                      recomputed one
===================== ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..binding.interconnect import fu_mux_inputs, register_mux_inputs
from ..datapath.area import register_area
from ..ir.operation import OpType
from ..scheduling.constraints import SynthesisConstraints
from ..scheduling.schedule import ScheduleError
from ..synthesis.result import SynthesisError, SynthesisResult

#: Absolute tolerance for float comparisons (areas, powers).
FLOAT_TOLERANCE = 1e-6


class CertificateError(SynthesisError, ScheduleError):
    """A synthesis result failed certification.

    Subclasses both :class:`~repro.synthesis.result.SynthesisError` and
    :class:`~repro.scheduling.schedule.ScheduleError` so every caller
    that treated the old shallow ``SynthesisResult.verify()`` failures as
    either exception family keeps working.  Carries the full report.
    """

    def __init__(self, report: "CertificateReport") -> None:
        self.report = report
        super().__init__(report.describe())

    def __reduce__(self):
        # default pickling would pass the formatted message as the report
        return (CertificateError, (self.report,))


@dataclass(frozen=True)
class Violation:
    """One broken contract found while certifying a result.

    Attributes:
        kind: Violation class (see the module docstring vocabulary).
        subject: The operation / instance / register / cycle concerned.
        message: Human-readable description of the violation.
        details: JSON-safe supporting data (expected vs. actual values).
    """

    kind: str
    subject: str
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "message": self.message,
            "details": dict(self.details),
        }

    def __str__(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.message}"


@dataclass
class CertificateReport:
    """The outcome of one :func:`check_certificate` run.

    Attributes:
        graph: Name of the certified CDFG.
        checks: Names of the check passes that ran.
        violations: Every violation found (empty = certified).
    """

    graph: str
    checks: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the result passed every check."""
        return not self.violations

    def kinds(self) -> List[str]:
        """The distinct violation kinds present, in first-seen order."""
        seen: List[str] = []
        for violation in self.violations:
            if violation.kind not in seen:
                seen.append(violation.kind)
        return seen

    def by_kind(self, kind: str) -> List[Violation]:
        return [v for v in self.violations if v.kind == kind]

    def raise_if_violations(self) -> None:
        """Raise :class:`CertificateError` unless the result is certified."""
        if self.violations:
            raise CertificateError(self)

    def describe(self) -> str:
        if self.ok:
            return (
                f"certificate for {self.graph!r}: ok "
                f"({len(self.checks)} checks passed)"
            )
        lines = [
            f"certificate for {self.graph!r}: {len(self.violations)} violation(s) "
            f"in {len(self.kinds())} class(es)"
        ]
        lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "graph": self.graph,
            "ok": self.ok,
            "checks": list(self.checks),
            "violations": [violation.to_dict() for violation in self.violations],
        }


# --------------------------------------------------------------------------- #
# Individual check passes
# --------------------------------------------------------------------------- #
def _check_completeness(result: SynthesisResult, report: CertificateReport) -> None:
    schedule = result.schedule
    cdfg = schedule.cdfg
    for name in cdfg.schedulable_operations():
        if name not in schedule.start_times:
            report.violations.append(
                Violation("completeness", name, "operation has no start time")
            )
            continue
        if schedule.start_times[name] < 0:
            report.violations.append(
                Violation(
                    "completeness",
                    name,
                    f"negative start cycle {schedule.start_times[name]}",
                )
            )
        if name not in schedule.delays:
            report.violations.append(
                Violation("completeness", name, "operation has no delay")
            )
        elif schedule.delays[name] <= 0:
            report.violations.append(
                Violation(
                    "completeness", name, f"non-positive delay {schedule.delays[name]}"
                )
            )
        if name not in schedule.powers:
            report.violations.append(
                Violation("completeness", name, "operation has no power")
            )
        elif schedule.powers[name] < 0:
            report.violations.append(
                Violation(
                    "completeness", name, f"negative power {schedule.powers[name]}"
                )
            )


def _scheduled(result: SynthesisResult) -> List[str]:
    """Operations with a full (start, delay, power) record — checkable ops."""
    schedule = result.schedule
    return [
        name
        for name in schedule.start_times
        if name in schedule.delays and name in schedule.powers
    ]


def _check_precedence(result: SynthesisResult, report: CertificateReport) -> None:
    schedule = result.schedule
    for src, dst in schedule.cdfg.edges():
        if src not in schedule.start_times or dst not in schedule.start_times:
            continue
        if src not in schedule.delays:
            continue
        finish = schedule.start_times[src] + schedule.delays[src]
        start = schedule.start_times[dst]
        if start < finish:
            report.violations.append(
                Violation(
                    "precedence",
                    f"{src}->{dst}",
                    f"consumer starts at {start} before producer finishes at {finish}",
                    {"producer_finish": finish, "consumer_start": start},
                )
            )


def _check_latency(
    result: SynthesisResult,
    constraints: SynthesisConstraints,
    report: CertificateReport,
) -> None:
    bound = constraints.time.latency
    schedule = result.schedule
    for name in _scheduled(result):
        finish = schedule.start_times[name] + schedule.delays[name]
        if finish > bound:
            report.violations.append(
                Violation(
                    "latency",
                    name,
                    f"finishes at cycle {finish}, after the bound T={bound}",
                    {"finish": finish, "bound": bound},
                )
            )


def _recomputed_profile(result: SynthesisResult) -> List[float]:
    """The per-cycle power profile, re-accumulated from the raw schedule."""
    schedule = result.schedule
    horizon = 0
    for name in _scheduled(result):
        horizon = max(horizon, schedule.start_times[name] + schedule.delays[name])
    profile = [0.0] * horizon
    for name in _scheduled(result):
        power = schedule.powers[name]
        if power == 0:
            continue
        start = schedule.start_times[name]
        for cycle in range(start, start + schedule.delays[name]):
            if 0 <= cycle < horizon:
                profile[cycle] += power
    return profile


def _check_power(
    result: SynthesisResult,
    constraints: SynthesisConstraints,
    report: CertificateReport,
) -> None:
    power = constraints.power
    if power.is_unbounded:
        return
    for cycle, total in enumerate(_recomputed_profile(result)):
        if total > power.max_power + power.tolerance:
            report.violations.append(
                Violation(
                    "power",
                    f"cycle {cycle}",
                    f"draws {total:g}, above the budget P={power.max_power:g}",
                    {"cycle": cycle, "draw": total, "budget": power.max_power},
                )
            )


def _check_binding(result: SynthesisResult, report: CertificateReport) -> None:
    datapath = result.datapath
    cdfg = result.schedule.cdfg
    schedulable = set(cdfg.schedulable_operations())

    for name in sorted(schedulable):
        if name not in datapath.binding:
            report.violations.append(
                Violation("binding", name, "operation is bound to no FU instance")
            )
    for name, instance_name in datapath.binding.items():
        if instance_name not in datapath.instances:
            report.violations.append(
                Violation(
                    "binding",
                    name,
                    f"bound to unknown instance {instance_name!r}",
                )
            )
            continue
        instance = datapath.instances[instance_name]
        if name not in instance.bound_ops:
            report.violations.append(
                Violation(
                    "binding",
                    name,
                    f"binding map names {instance_name} but the instance does not "
                    "list the operation",
                )
            )
        if name in schedulable:
            optype = cdfg.operation(name).optype
            if not instance.module.supports(optype):
                report.violations.append(
                    Violation(
                        "binding",
                        name,
                        f"module {instance.module.name!r} cannot execute "
                        f"{optype.value!r}",
                        {"module": instance.module.name, "optype": optype.value},
                    )
                )
    # Reverse direction: instances must not claim operations the binding
    # map does not attribute to them (or claim one twice).
    for instance in datapath.instances.values():
        seen: set = set()
        for op_name in instance.bound_ops:
            if op_name in seen:
                report.violations.append(
                    Violation(
                        "binding",
                        op_name,
                        f"listed twice on instance {instance.name}",
                    )
                )
            seen.add(op_name)
            if datapath.binding.get(op_name) != instance.name:
                report.violations.append(
                    Violation(
                        "binding",
                        op_name,
                        f"instance {instance.name} claims the operation but the "
                        f"binding map says {datapath.binding.get(op_name)!r}",
                    )
                )


def _check_module_consistency(
    result: SynthesisResult, report: CertificateReport
) -> None:
    """Schedule delays/powers must be the bound module's delay/power."""
    schedule = result.schedule
    datapath = result.datapath
    for name, instance_name in datapath.binding.items():
        if instance_name not in datapath.instances:
            continue  # reported by _check_binding
        module = datapath.instances[instance_name].module
        delay = schedule.delays.get(name)
        power = schedule.powers.get(name)
        if delay is not None and delay != module.latency:
            report.violations.append(
                Violation(
                    "module-mismatch",
                    name,
                    f"scheduled delay {delay} but module {module.name!r} takes "
                    f"{module.latency} cycle(s)",
                    {"delay": delay, "module_latency": module.latency},
                )
            )
        if power is not None and abs(power - module.power) > FLOAT_TOLERANCE:
            report.violations.append(
                Violation(
                    "module-mismatch",
                    name,
                    f"scheduled power {power:g} but module {module.name!r} draws "
                    f"{module.power:g}",
                    {"power": power, "module_power": module.power},
                )
            )


def _check_resource_conflicts(
    result: SynthesisResult, report: CertificateReport
) -> None:
    """No two operations may overlap on one instance (module latency)."""
    schedule = result.schedule
    for instance in result.datapath.instances.values():
        spans: List[Tuple[int, int, str]] = []
        for op_name in instance.bound_ops:
            if op_name not in schedule.start_times:
                continue
            start = schedule.start_times[op_name]
            spans.append((start, start + instance.module.latency, op_name))
        spans.sort()
        for (s1, e1, op1), (s2, e2, op2) in zip(spans, spans[1:]):
            if s2 < e1:
                report.violations.append(
                    Violation(
                        "resource-conflict",
                        instance.name,
                        f"{op1} [{s1},{e1}) overlaps {op2} [{s2},{e2})",
                        {"first": op1, "second": op2},
                    )
                )


def _derived_lifetimes(result: SynthesisResult) -> Dict[str, Tuple[int, int]]:
    """Value lifetimes re-derived from the schedule (producer → [birth, death)).

    A value is live from its producer's finish until one cycle past its
    last consumer's start (chained same-cycle consumption still occupies
    the register for one cycle).  Outputs and virtual operations produce
    no stored value; neither do values nobody consumes.
    """
    schedule = result.schedule
    cdfg = schedule.cdfg
    lifetimes: Dict[str, Tuple[int, int]] = {}
    for name in _scheduled(result):
        op = cdfg.operation(name)
        if op.optype is OpType.OUTPUT or op.is_virtual:
            continue
        consumers = [c for c in cdfg.successors(name) if c in schedule.start_times]
        if not consumers:
            continue
        birth = schedule.start_times[name] + schedule.delays[name]
        death = max(schedule.start_times[c] for c in consumers) + 1
        lifetimes[name] = (birth, max(death, birth + 1))
    return lifetimes


def _check_registers(result: SynthesisResult, report: CertificateReport) -> None:
    allocation = result.datapath.registers
    if allocation is None:
        report.violations.append(
            Violation(
                "register-missing",
                result.schedule.cdfg.name,
                "datapath carries no register allocation",
            )
        )
        return
    lifetimes = _derived_lifetimes(result)

    stored: Dict[str, List[int]] = {}
    for index, producers in allocation.registers.items():
        for producer in producers:
            stored.setdefault(producer, []).append(index)
    for producer in sorted(lifetimes):
        homes = stored.get(producer, [])
        if not homes:
            report.violations.append(
                Violation(
                    "register-missing",
                    producer,
                    "live value is stored in no register",
                    {"lifetime": list(lifetimes[producer])},
                )
            )
        elif len(homes) > 1:
            report.violations.append(
                Violation(
                    "register-missing",
                    producer,
                    f"value is stored in {len(homes)} registers {sorted(homes)}",
                    {"registers": sorted(homes)},
                )
            )

    for index, producers in allocation.registers.items():
        spans = sorted(
            (lifetimes[p], p) for p in producers if p in lifetimes
        )
        for ((s1, e1), p1), ((s2, e2), p2) in zip(spans, spans[1:]):
            if s2 < e1:
                report.violations.append(
                    Violation(
                        "register-overlap",
                        f"r{index}",
                        f"{p1} [{s1},{e1}) overlaps {p2} [{s2},{e2})",
                        {"first": p1, "second": p2},
                    )
                )


def _check_interconnect(result: SynthesisResult, report: CertificateReport) -> None:
    datapath = result.datapath
    stored = datapath.interconnect
    if stored is None:
        report.violations.append(
            Violation(
                "interconnect",
                result.schedule.cdfg.name,
                "datapath carries no interconnect report",
            )
        )
        return
    expected_fu = fu_mux_inputs(result.schedule.cdfg, datapath.binding)
    if stored.fu_mux_inputs != expected_fu:
        report.violations.append(
            Violation(
                "interconnect",
                "fu-mux",
                f"stored {stored.fu_mux_inputs} FU mux input(s), the binding "
                f"implies {expected_fu}",
                {"stored": stored.fu_mux_inputs, "expected": expected_fu},
            )
        )
    if datapath.registers is not None:
        expected_reg = register_mux_inputs(datapath.registers)
        if stored.register_mux_inputs != expected_reg:
            report.violations.append(
                Violation(
                    "interconnect",
                    "register-mux",
                    f"stored {stored.register_mux_inputs} register mux input(s), "
                    f"the allocation implies {expected_reg}",
                    {"stored": stored.register_mux_inputs, "expected": expected_reg},
                )
            )


def _check_area(result: SynthesisResult, report: CertificateReport) -> None:
    datapath = result.datapath
    expected_fu = sum(instance.area for instance in datapath.instances.values())
    if abs(result.area.functional_units - expected_fu) > FLOAT_TOLERANCE:
        report.violations.append(
            Violation(
                "area",
                "functional-units",
                f"reported {result.area.functional_units:g}, instances sum to "
                f"{expected_fu:g}",
                {"reported": result.area.functional_units, "expected": expected_fu},
            )
        )
    if datapath.registers is not None:
        expected_reg = register_area(datapath.registers.count)
        if abs(result.area.registers - expected_reg) > FLOAT_TOLERANCE:
            report.violations.append(
                Violation(
                    "area",
                    "registers",
                    f"reported {result.area.registers:g}, the allocation implies "
                    f"{expected_reg:g}",
                    {"reported": result.area.registers, "expected": expected_reg},
                )
            )
    if datapath.interconnect is not None:
        if abs(result.area.interconnect - datapath.interconnect.area) > FLOAT_TOLERANCE:
            report.violations.append(
                Violation(
                    "area",
                    "interconnect",
                    f"reported {result.area.interconnect:g}, the mux counts imply "
                    f"{datapath.interconnect.area:g}",
                    {
                        "reported": result.area.interconnect,
                        "expected": datapath.interconnect.area,
                    },
                )
            )


def _check_register_budget(
    result: SynthesisResult,
    constraints: SynthesisConstraints,
    report: CertificateReport,
) -> None:
    """Certify the register budget from two independent angles.

    Both the *stored* allocation's register count and the peak value
    liveness *re-derived from the schedule alone* must fit the budget —
    so neither an inflated allocation nor a schedule whose pressure the
    allocator happened to hide can pass.
    """
    budget = constraints.register_budget
    if budget is None:
        return
    lifetimes = _derived_lifetimes(result)
    events: Dict[int, int] = {}
    for birth, death in lifetimes.values():
        events[birth] = events.get(birth, 0) + 1
        events[death] = events.get(death, 0) - 1
    peak = current = 0
    for cycle in sorted(events):
        current += events[cycle]
        peak = max(peak, current)
    if peak > budget:
        report.violations.append(
            Violation(
                "register-budget",
                result.schedule.cdfg.name,
                f"{peak} values are simultaneously live, budget is {budget}",
                {"peak": peak, "budget": budget},
            )
        )
    allocation = result.datapath.registers
    if allocation is not None and allocation.count > budget:
        report.violations.append(
            Violation(
                "register-budget",
                result.schedule.cdfg.name,
                f"allocation uses {allocation.count} registers, budget is {budget}",
                {"count": allocation.count, "budget": budget},
            )
        )


#: The check passes, in the order they run (name → implementation).
_CHECKS = (
    ("completeness", _check_completeness),
    ("precedence", _check_precedence),
    ("binding", _check_binding),
    ("module-consistency", _check_module_consistency),
    ("resource-conflicts", _check_resource_conflicts),
    ("registers", _check_registers),
    ("interconnect", _check_interconnect),
    ("area", _check_area),
)


def check_certificate(
    result: SynthesisResult,
    constraints: Optional[SynthesisConstraints] = None,
) -> CertificateReport:
    """Independently re-validate a synthesis result end to end.

    Args:
        result: The result to certify (any producer: engine or two-phase).
        constraints: The (T, P) pair to certify against; defaults to the
            constraints recorded on the result.

    Returns:
        A :class:`CertificateReport`; ``report.ok`` is True when every
        contract holds, otherwise ``report.violations`` lists each broken
        one.  Use :meth:`CertificateReport.raise_if_violations` for the
        raising form.
    """
    constraints = constraints if constraints is not None else result.constraints
    report = CertificateReport(graph=result.schedule.cdfg.name)
    for name, check in _CHECKS:
        report.checks.append(name)
        check(result, report)
    report.checks.append("latency")
    _check_latency(result, constraints, report)
    report.checks.append("power")
    _check_power(result, constraints, report)
    report.checks.append("register-budget")
    _check_register_budget(result, constraints, report)
    return report
