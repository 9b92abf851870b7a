"""Module-selection policies.

Before any schedule exists, the power-constrained schedulers (pasap/palap)
and the synthesis engine's scheduling windows need a *tentative* module
choice per operation to know its delay and per-cycle power.  The final
binding may later move an operation to a different (compatible) module,
but the tentative choice anchors the initial power-feasibility analysis.

Three stock policies are provided; the synthesis engine defaults to
:class:`MinPowerSelection`, matching the paper's goal of stretching the
schedule using the least power-hungry implementations and only paying for
faster/bigger modules when latency forces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping

from ..ir.cdfg import CDFG
from ..ir.operation import OpType
from .library import FULibrary
from .module import FUModule, LibraryError

#: A selection maps each operation name to a library module.
Selection = Dict[str, FUModule]


@dataclass(frozen=True)
class SelectionPolicy:
    """Base policy: pick a module per operation according to ``chooser``."""

    name: str
    chooser: Callable[[FULibrary, OpType], FUModule]

    def select(self, cdfg: CDFG, library: FULibrary) -> Selection:
        """Choose a module for every non-virtual operation of ``cdfg``.

        Raises:
            LibraryError: if some operation type has no implementing module.
        """
        selection: Selection = {}
        for op_name in cdfg.schedulable_operations():
            optype = cdfg.operation(op_name).optype
            selection[op_name] = self.chooser(library, optype)
        return selection


def MinAreaSelection() -> SelectionPolicy:
    """Pick the smallest-area module for every operation."""
    return SelectionPolicy("min-area", lambda lib, t: lib.cheapest(t))


def MinLatencySelection() -> SelectionPolicy:
    """Pick the fastest module for every operation."""
    return SelectionPolicy("min-latency", lambda lib, t: lib.fastest(t))


def MinPowerSelection() -> SelectionPolicy:
    """Pick the lowest per-cycle-power module for every operation."""
    return SelectionPolicy("min-power", lambda lib, t: lib.lowest_power(t))


def selection_delays(selection: Mapping[str, FUModule], cdfg: CDFG) -> Dict[str, int]:
    """Per-operation delay map induced by a module selection.

    Virtual operations (constants, no-ops) get zero delay.
    """
    delays: Dict[str, int] = {}
    for op_name in cdfg.operation_names():
        op = cdfg.operation(op_name)
        if op.is_virtual:
            delays[op_name] = 0
        else:
            try:
                delays[op_name] = selection[op_name].latency
            except KeyError:
                raise LibraryError(f"no module selected for operation {op_name!r}") from None
    return delays


def selection_powers(selection: Mapping[str, FUModule], cdfg: CDFG) -> Dict[str, float]:
    """Per-operation per-cycle power map induced by a module selection."""
    powers: Dict[str, float] = {}
    for op_name in cdfg.operation_names():
        op = cdfg.operation(op_name)
        if op.is_virtual:
            powers[op_name] = 0.0
        else:
            try:
                powers[op_name] = selection[op_name].power
            except KeyError:
                raise LibraryError(f"no module selected for operation {op_name!r}") from None
    return powers


def total_energy(selection: Mapping[str, FUModule], cdfg: CDFG) -> float:
    """Total energy (Σ power × latency) over all non-virtual operations."""
    energy = 0.0
    for op_name in cdfg.schedulable_operations():
        module = selection.get(op_name)
        if module is None:
            raise LibraryError(f"no module selected for operation {op_name!r}")
        energy += module.energy
    return energy


def check_selection(selection: Mapping[str, FUModule], cdfg: CDFG) -> None:
    """Validate that a selection is complete and type-correct.

    Raises:
        LibraryError: on a missing operation or a module that cannot
            execute the operation's type.
    """
    for op_name in cdfg.schedulable_operations():
        module = selection.get(op_name)
        if module is None:
            raise LibraryError(f"selection missing operation {op_name!r}")
        optype = cdfg.operation(op_name).optype
        if not module.supports(optype):
            raise LibraryError(
                f"module {module.name!r} cannot execute {optype.value!r} "
                f"(operation {op_name!r})"
            )
