"""Schedule result object.

A :class:`Schedule` pairs a CDFG with start times, per-operation delays
and per-operation per-cycle powers.  It provides the derived quantities
every other part of the flow needs:

* the per-cycle **power profile** (Figure 1 of the paper is exactly two of
  these profiles),
* the **makespan** (latency actually used),
* **legality checks** (precedence, latency bound, power bound),
* execution intervals, which the Gantt charts draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..ir.cdfg import CDFG
from .constraints import PowerConstraint, TimeConstraint


class ScheduleError(Exception):
    """Raised when a schedule is malformed or violates its contract."""


@dataclass
class Schedule:
    """An assignment of start cycles to CDFG operations.

    Attributes:
        cdfg: The scheduled graph.
        start_times: Operation name → start cycle (0-based).
        delays: Operation name → execution latency in cycles.
        powers: Operation name → per-cycle power while executing.
        label: Free-form description (scheduler name, constraint summary).
    """

    cdfg: CDFG
    start_times: Dict[str, int]
    delays: Dict[str, int]
    powers: Dict[str, float]
    label: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [
            n
            for n in self.cdfg.schedulable_operations()
            if n not in self.start_times
        ]
        if missing:
            raise ScheduleError(f"schedule missing operations: {sorted(missing)}")
        for name, start in self.start_times.items():
            if start < 0:
                raise ScheduleError(f"operation {name!r} scheduled at negative cycle {start}")
            if name not in self.delays:
                raise ScheduleError(f"no delay recorded for operation {name!r}")
            if name not in self.powers:
                raise ScheduleError(f"no power recorded for operation {name!r}")

    # ------------------------------------------------------------------ #
    # Basic derived quantities
    # ------------------------------------------------------------------ #
    def start(self, op_name: str) -> int:
        try:
            return self.start_times[op_name]
        except KeyError:
            raise ScheduleError(f"operation {op_name!r} is not scheduled") from None

    def finish(self, op_name: str) -> int:
        """First cycle *after* the operation completes."""
        return self.start(op_name) + self.delays[op_name]

    def interval(self, op_name: str) -> Tuple[int, int]:
        """Half-open execution interval ``[start, finish)``."""
        return self.start(op_name), self.finish(op_name)

    @property
    def makespan(self) -> int:
        """Number of cycles from cycle 0 until the last operation finishes."""
        if not self.start_times:
            return 0
        return max(self.finish(n) for n in self.start_times)

    def operations_in_cycle(self, cycle: int) -> List[str]:
        """Names of operations executing during ``cycle``."""
        return [
            n
            for n in self.start_times
            if self.start(n) <= cycle < self.finish(n)
        ]

    # ------------------------------------------------------------------ #
    # Power
    # ------------------------------------------------------------------ #
    def power_profile(self, horizon: Optional[int] = None) -> List[float]:
        """Per-cycle total power from cycle 0 to ``horizon`` (default makespan)."""
        horizon = self.makespan if horizon is None else max(horizon, self.makespan)
        profile = [0.0] * horizon
        for name in self.start_times:
            power = self.powers[name]
            if power == 0:
                continue
            for cycle in range(self.start(name), self.finish(name)):
                profile[cycle] += power
        return profile

    @property
    def peak_power(self) -> float:
        """Largest per-cycle power over the whole schedule."""
        profile = self.power_profile()
        return max(profile) if profile else 0.0

    @property
    def average_power(self) -> float:
        """Mean per-cycle power over the makespan."""
        profile = self.power_profile()
        return sum(profile) / len(profile) if profile else 0.0

    @property
    def total_energy(self) -> float:
        """Total energy = Σ per-operation power × delay."""
        return sum(self.powers[n] * self.delays[n] for n in self.start_times)

    # ------------------------------------------------------------------ #
    # Legality
    # ------------------------------------------------------------------ #
    def precedence_violations(self) -> List[Tuple[str, str]]:
        """Data edges whose consumer starts before its producer finishes."""
        violations = []
        for src, dst in self.cdfg.edges():
            if src not in self.start_times or dst not in self.start_times:
                continue
            if self.start(dst) < self.finish(src):
                violations.append((src, dst))
        return violations

    def respects_precedence(self) -> bool:
        return not self.precedence_violations()

    def respects_time(self, constraint: TimeConstraint) -> bool:
        return constraint.satisfied_by(self.makespan)

    def respects_power(self, constraint: PowerConstraint) -> bool:
        return all(constraint.allows(p) for p in self.power_profile())

    def verify(
        self,
        time: Optional[TimeConstraint] = None,
        power: Optional[PowerConstraint] = None,
    ) -> None:
        """Raise :class:`ScheduleError` if the schedule is illegal.

        Always checks precedence; latency and power are checked when the
        corresponding constraint is supplied.
        """
        violations = self.precedence_violations()
        if violations:
            raise ScheduleError(f"precedence violations: {violations}")
        if time is not None and not self.respects_time(time):
            raise ScheduleError(
                f"makespan {self.makespan} exceeds latency bound {time.latency}"
            )
        if power is not None and not self.respects_power(power):
            raise ScheduleError(
                f"peak power {self.peak_power:.3f} exceeds budget {power.max_power:.3f}"
            )

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def by_cycle(self) -> Dict[int, List[str]]:
        """Operations grouped by start cycle (ASCII Gantt helper)."""
        grouped: Dict[int, List[str]] = {}
        for name in sorted(self.start_times):
            grouped.setdefault(self.start(name), []).append(name)
        return dict(sorted(grouped.items()))

    def describe(self) -> str:
        """Multi-line textual summary of the schedule."""
        lines = [
            f"schedule {self.label or self.cdfg.name!r}: "
            f"makespan={self.makespan} peak_power={self.peak_power:.2f} "
            f"energy={self.total_energy:.2f}"
        ]
        for cycle, names in self.by_cycle().items():
            lines.append(f"  cycle {cycle:3d}: {', '.join(names)}")
        return "\n".join(lines)

    def copy_with(self, **overrides: object) -> "Schedule":
        """A shallow copy with some fields replaced (used by re-scheduling)."""
        data = {
            "cdfg": self.cdfg,
            "start_times": dict(self.start_times),
            "delays": dict(self.delays),
            "powers": dict(self.powers),
            "label": self.label,
            "metadata": dict(self.metadata),
        }
        data.update(overrides)
        return Schedule(**data)  # type: ignore[arg-type]


def empty_power_profile(length: int) -> List[float]:
    """A zero power profile of ``length`` cycles (helper for the schedulers)."""
    if length < 0:
        raise ValueError("profile length must be non-negative")
    return [0.0] * length


def add_to_profile(
    profile: List[float],
    start: int,
    delay: int,
    power: float,
) -> List[float]:
    """Accumulate an operation's power into a profile (growing it if needed)."""
    needed = start + delay
    if needed > len(profile):
        profile.extend([0.0] * (needed - len(profile)))
    for cycle in range(start, start + delay):
        profile[cycle] += power
    return profile


def profile_allows(
    profile: Mapping[int, float] | List[float],
    start: int,
    delay: int,
    power: float,
    constraint: PowerConstraint,
) -> bool:
    """True if adding an operation at ``start`` keeps every cycle within budget."""
    if constraint.is_unbounded:
        return True
    for cycle in range(start, start + delay):
        existing = profile[cycle] if cycle < len(profile) else 0.0
        if not constraint.allows(existing + power):
            return False
    return True
