"""Unit tests for interconnect (multiplexer) estimation."""

import pytest

from repro.binding.interconnect import (
    MUX_INPUT_AREA,
    fu_mux_inputs,
    interconnect_report,
    register_mux_inputs,
)
from repro.binding.register import RegisterAllocation, ValueLifetime, allocate_registers
from repro.binding.intervals import Interval
from repro.library.selection import MinPowerSelection, selection_delays, selection_powers
from repro.scheduling.asap import asap_schedule


class TestFuMuxes:
    def test_unshared_unit_needs_no_mux(self, diamond):
        binding = {"left": "add#0", "right": "Mult#0", "bottom": "sub#0",
                   "a": "input#0", "c": "input#1", "out": "output#0"}
        assert fu_mux_inputs(diamond, binding) == 0

    def test_shared_unit_with_different_sources_needs_mux(self, diamond):
        # left and bottom share one ALU: their operand sources differ
        binding = {"left": "ALU#0", "bottom": "ALU#0"}
        assert fu_mux_inputs(diamond, binding) > 0

    def test_mux_count_counts_distinct_sources(self, wide):
        binding = {f"m{k}": "Mult#0" for k in range(4)}
        count = fu_mux_inputs(wide, binding)
        assert count > 0
        # four operations, two ports, at most four distinct sources per port
        assert count <= 8


class TestRegisterMuxes:
    def test_private_register_needs_no_mux(self):
        allocation = RegisterAllocation(
            registers={0: ["a"], 1: ["b"]},
            lifetimes={
                "a": ValueLifetime("a", Interval(0, 2)),
                "b": ValueLifetime("b", Interval(0, 2)),
            },
        )
        assert register_mux_inputs(allocation) == 0

    def test_shared_register_counts_writers(self):
        allocation = RegisterAllocation(
            registers={0: ["a", "b", "c"]},
            lifetimes={
                "a": ValueLifetime("a", Interval(0, 1)),
                "b": ValueLifetime("b", Interval(1, 2)),
                "c": ValueLifetime("c", Interval(2, 3)),
            },
        )
        assert register_mux_inputs(allocation) == 3


class TestReport:
    def test_report_totals_and_area(self, hal, library):
        selection = MinPowerSelection().select(hal, library)
        delays = selection_delays(selection, hal)
        powers = selection_powers(selection, hal)
        schedule = asap_schedule(hal, delays, powers)
        allocation = allocate_registers(schedule)
        binding = {op: f"{selection[op].name}#0" for op in hal.schedulable_operations()}
        report = interconnect_report(hal, binding, allocation)
        assert report.total_mux_inputs == report.fu_mux_inputs + report.register_mux_inputs
        assert report.area == pytest.approx(report.total_mux_inputs * MUX_INPUT_AREA)

