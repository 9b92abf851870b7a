"""Binding support: lifetime intervals, register allocation, interconnect and merge ranking."""

from .intervals import (
    Interval,
    any_overlap,
    intervals_overlap,
    max_overlap_count,
    union_length,
)
from .register import (
    RegisterAllocation,
    ValueLifetime,
    allocate_registers,
    left_edge_allocation,
    register_lower_bound,
    value_lifetimes,
)
from .interconnect import (
    MUX_INPUT_AREA,
    InterconnectReport,
    fu_mux_inputs,
    interconnect_report,
    register_mux_inputs,
)
from .merge import BindingDecision, better

__all__ = [
    "Interval",
    "any_overlap",
    "intervals_overlap",
    "max_overlap_count",
    "union_length",
    "RegisterAllocation",
    "ValueLifetime",
    "allocate_registers",
    "left_edge_allocation",
    "register_lower_bound",
    "value_lifetimes",
    "MUX_INPUT_AREA",
    "InterconnectReport",
    "fu_mux_inputs",
    "interconnect_report",
    "register_mux_inputs",
    "BindingDecision",
    "better",
]
