"""Functional-unit module and instance models.

A *module* is a type of hardware resource available from the technology
library: it supports a set of operation types and has an area, a latency
(clock cycles per operation) and a per-cycle power consumption while
executing.  This is exactly the information the paper's Table 1 provides
for each library entry.

An *instance* is one allocated copy of a module in the synthesized
datapath.  Binding maps every CDFG operation to an instance; several
operations may share one instance as long as their execution intervals do
not overlap (that sharing is what the synthesis engine and the ``greedy``
binder look for).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Tuple

from ..ir.operation import OpType


class LibraryError(Exception):
    """Raised for malformed library definitions or unsupported requests."""


@dataclass(frozen=True)
class FUModule:
    """A functional-unit type from the technology library.

    Attributes:
        name: Unique module name (e.g. ``"ALU"``, ``"Mult (ser.)"``).
        supported_ops: Operation types this module can execute.
        area: Silicon area in the paper's (unit-less) area units.
        latency: Clock cycles needed to execute one operation.
        power: Power drawn in *each* cycle the module is executing, in the
            paper's power units.
    """

    name: str
    supported_ops: FrozenSet[OpType]
    area: float
    latency: int
    power: float

    def __post_init__(self) -> None:
        if not self.name:
            raise LibraryError("module name must be non-empty")
        if not self.supported_ops:
            raise LibraryError(f"module {self.name!r} supports no operations")
        if self.area < 0:
            raise LibraryError(f"module {self.name!r} has negative area")
        if self.latency <= 0:
            raise LibraryError(f"module {self.name!r} must take at least one cycle")
        if self.power < 0:
            raise LibraryError(f"module {self.name!r} has negative power")
        object.__setattr__(self, "supported_ops", frozenset(self.supported_ops))

    def supports(self, optype: OpType) -> bool:
        """True if the module can execute operations of ``optype``."""
        return optype in self.supported_ops

    @property
    def energy(self) -> float:
        """Energy of one operation execution (power × latency)."""
        return self.power * self.latency

    @property
    def is_multifunction(self) -> bool:
        """True if the module implements more than one operation type."""
        return len(self.supported_ops) > 1

    def describe(self) -> str:
        """One-line human-readable description (used in reports)."""
        ops = ",".join(sorted(op.value for op in self.supported_ops))
        return (
            f"{self.name}: ops={{{ops}}} area={self.area:g} "
            f"cycles={self.latency} power={self.power:g}"
        )

    @staticmethod
    def make(
        name: str,
        ops: Iterable[OpType],
        area: float,
        latency: int,
        power: float,
    ) -> "FUModule":
        """Convenience constructor accepting any iterable of op types."""
        return FUModule(name, frozenset(ops), float(area), int(latency), float(power))


@dataclass
class FUInstance:
    """A concrete allocated copy of a module in the datapath.

    Attributes:
        module: The library module this instance realizes.
        index: Instance number among instances of the same module.
        bound_ops: Names of CDFG operations bound to this instance, in
            binding order.
    """

    module: FUModule
    index: int
    bound_ops: List[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Unique datapath name, e.g. ``"ALU#0"``."""
        return f"{self.module.name}#{self.index}"

    @property
    def area(self) -> float:
        return self.module.area

    def bind(self, op_name: str) -> None:
        """Record that ``op_name`` executes on this instance."""
        if op_name in self.bound_ops:
            raise LibraryError(f"operation {op_name!r} already bound to {self.name}")
        self.bound_ops.append(op_name)

    def unbind(self, op_name: str) -> None:
        """Remove a previously bound operation (used by backtracking)."""
        try:
            self.bound_ops.remove(op_name)
        except ValueError:
            raise LibraryError(f"operation {op_name!r} not bound to {self.name}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FUInstance({self.name}, ops={self.bound_ops})"


def busy_intervals(
    instance: FUInstance,
    start_times: dict,
) -> List[Tuple[int, int]]:
    """Execution intervals ``[start, start+latency)`` of an instance's operations.

    Operations missing from ``start_times`` (not yet scheduled) are skipped.
    """
    spans = []
    for op_name in instance.bound_ops:
        if op_name in start_times:
            start = start_times[op_name]
            spans.append((start, start + instance.module.latency))
    return sorted(spans)
