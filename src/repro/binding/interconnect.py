"""Interconnect (multiplexer) estimation.

When several operations share a functional unit, the unit's input ports
must be fed by multiplexers selecting among the source registers of the
operations bound to it; likewise a register written by several producers
needs a multiplexer in front of its data input.  This module estimates
those multiplexers for a finished binding: the datapath's area model and
the certificate checker use it.  (The synthesis engine breaks area ties
by "least interconnect" too, counting each instance's new sources as it
binds.)

The model is intentionally simple and uniform across all experiments:

* every distinct (source operation → FU instance input port) connection
  beyond the first on that port contributes one mux input,
* every distinct producer writing a shared register beyond the first
  contributes one mux input,
* a mux input costs :data:`MUX_INPUT_AREA` area units (documented in
  DESIGN.md; the absolute value only shifts all areas equally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Set, Tuple

from ..ir.cdfg import CDFG
from .register import RegisterAllocation

#: Area of one multiplexer input in the paper's area units.
MUX_INPUT_AREA = 3.0


@dataclass(frozen=True)
class InterconnectReport:
    """Mux counts for a bound datapath."""

    fu_mux_inputs: int
    register_mux_inputs: int

    @property
    def total_mux_inputs(self) -> int:
        return self.fu_mux_inputs + self.register_mux_inputs

    @property
    def area(self) -> float:
        return self.total_mux_inputs * MUX_INPUT_AREA


def fu_mux_inputs(
    cdfg: CDFG,
    binding: Mapping[str, str],
) -> int:
    """Mux inputs needed in front of functional-unit input ports.

    Args:
        cdfg: The data-flow graph.
        binding: Operation name → FU instance name.

    Returns:
        Total number of extra mux inputs over all instances and ports.
    """
    # port index -> set of producing operations, per instance
    sources: Dict[Tuple[str, int], Set[str]] = {}
    for op_name, instance_name in binding.items():
        predecessors = sorted(cdfg.predecessors(op_name))
        for port, producer in enumerate(predecessors):
            sources.setdefault((instance_name, port), set()).add(producer)
    total = 0
    for feeding in sources.values():
        if len(feeding) > 1:
            total += len(feeding)
    return total


def register_mux_inputs(allocation: RegisterAllocation) -> int:
    """Mux inputs needed in front of shared registers."""
    total = 0
    for producers in allocation.registers.values():
        if len(producers) > 1:
            total += len(producers)
    return total


def interconnect_report(
    cdfg: CDFG,
    binding: Mapping[str, str],
    allocation: RegisterAllocation,
) -> InterconnectReport:
    """Combined FU and register multiplexer estimate."""
    return InterconnectReport(
        fu_mux_inputs=fu_mux_inputs(cdfg, binding),
        register_mux_inputs=register_mux_inputs(allocation),
    )

