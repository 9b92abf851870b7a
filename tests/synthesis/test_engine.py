"""Unit tests for the combined power-constrained synthesis engine."""

import pytest

from repro.ir.cdfg import CDFG
from repro.ir.operation import OpType
from repro.scheduling.constraints import PowerConstraint, SynthesisConstraints, TimeConstraint
from repro.synthesis.engine import EngineOptions, PowerConstrainedSynthesizer, synthesize
from repro.synthesis.result import (
    PowerInfeasibleSynthesisError,
    TimingInfeasibleError,
)


class TestBasicContracts:
    def test_hal_meets_time_and_power(self, hal, library):
        result = synthesize(hal, library, latency=17, max_power=12.0)
        result.verify()
        assert result.latency <= 17
        assert result.peak_power <= 12.0 + 1e-9

    def test_every_operation_bound_exactly_once(self, hal, library):
        result = synthesize(hal, library, latency=17, max_power=12.0)
        bound = sorted(result.datapath.binding)
        assert bound == sorted(hal.schedulable_operations())
        per_instance = [
            op
            for instance in result.datapath.instances.values()
            for op in instance.bound_ops
        ]
        assert sorted(per_instance) == bound

    def test_bindings_are_type_correct(self, cosine, library):
        result = synthesize(cosine, library, latency=15, max_power=30.0)
        for op_name, instance_name in result.datapath.binding.items():
            module = result.datapath.instances[instance_name].module
            assert module.supports(cosine.operation(op_name).optype)

    def test_no_sharing_conflicts(self, elliptic, library):
        result = synthesize(elliptic, library, latency=22, max_power=25.0)
        assert result.datapath.check_no_conflicts() == []

    def test_area_breakdown_positive(self, hal, library):
        result = synthesize(hal, library, latency=17, max_power=12.0)
        assert result.area.functional_units > 0
        assert result.area.registers > 0
        assert result.total_area == pytest.approx(result.area.total)

    def test_unbounded_power_still_legal(self, cosine, library):
        result = synthesize(cosine, library, latency=12)
        result.verify()

    def test_trace_records_every_binding(self, hal, library):
        result = synthesize(hal, library, latency=17, max_power=12.0)
        # one trace line per bound operation plus possible backtrack notes
        assert len(result.trace) >= len(hal.schedulable_operations())

    def test_trace_can_be_disabled(self, hal, library):
        options = EngineOptions(trace=False)
        constraints = SynthesisConstraints.of(17, 12.0)
        result = PowerConstrainedSynthesizer(library, constraints, options).synthesize(hal)
        assert result.trace == []

    def test_deterministic(self, hal, library):
        first = synthesize(hal, library, latency=17, max_power=12.0)
        second = synthesize(hal, library, latency=17, max_power=12.0)
        assert first.total_area == second.total_area
        assert first.schedule.start_times == second.schedule.start_times

    def test_empty_graph_gives_an_empty_datapath(self, library):
        constraints = SynthesisConstraints(TimeConstraint(5), PowerConstraint(10.0))
        result = PowerConstrainedSynthesizer(library, constraints).synthesize(CDFG("empty"))
        assert result.total_area == 0
        assert result.datapath.instances == {}


class TestModuleSelection:
    def test_tight_latency_uses_parallel_multiplier(self, hal, library):
        """hal at T=10 is below the serial-multiplier critical path (16)."""
        result = synthesize(hal, library, latency=10)
        assert result.allocation_summary().get("Mult (par.)", 0) >= 1

    def test_loose_latency_prefers_serial_multiplier(self, hal, library):
        result = synthesize(hal, library, latency=17, max_power=12.0)
        allocation = result.allocation_summary()
        assert allocation.get("Mult (par.)", 0) == 0
        assert allocation.get("Mult (ser.)", 0) >= 1

    def test_sharing_reduces_multiplier_count(self, hal, library):
        """Six multiplications must not need six multipliers at T=17."""
        result = synthesize(hal, library, latency=17, max_power=12.0)
        mults = result.allocation_summary().get("Mult (ser.)", 0)
        assert mults < len(hal.operations_of_type(OpType.MUL))


class TestInfeasibility:
    def test_latency_below_best_critical_path(self, hal, library):
        with pytest.raises(TimingInfeasibleError):
            synthesize(hal, library, latency=6, max_power=50.0)

    def test_power_below_single_operation(self, hal, library):
        with pytest.raises(PowerInfeasibleSynthesisError):
            synthesize(hal, library, latency=17, max_power=2.0)

    def test_power_energy_bound(self, cosine, library):
        """The total energy over T cycles forces a minimum budget."""
        with pytest.raises(PowerInfeasibleSynthesisError):
            synthesize(cosine, library, latency=12, max_power=9.0)


class TestConstraintTradeoffs:
    def test_tighter_latency_costs_area(self, hal, library):
        tight = synthesize(hal, library, latency=10)
        loose = synthesize(hal, library, latency=17)
        assert tight.total_area > loose.total_area

    def test_loose_power_matches_unconstrained(self, hal, library):
        unconstrained = synthesize(hal, library, latency=17)
        very_loose = synthesize(hal, library, latency=17, max_power=1000.0)
        assert very_loose.total_area == pytest.approx(unconstrained.total_area)

    def test_peak_power_tracks_budget(self, cosine, library):
        for budget in (28.0, 40.0, 60.0):
            result = synthesize(cosine, library, latency=12, max_power=budget)
            assert result.peak_power <= budget + 1e-9

    def test_result_describe(self, hal, library):
        result = synthesize(hal, library, latency=17, max_power=12.0)
        text = result.describe()
        assert "T<=17" in text
        assert "area" in text


class TestBacktracking:
    def test_backtrack_count_is_reported_and_result_legal(self, hal, library):
        """Tight (T, P) corners exercise the backtrack-and-lock rule; whatever
        path the engine takes, the outcome must stay legal."""
        for budget in (8.5, 9.0, 10.0, 16.5):
            try:
                result = synthesize(hal, library, latency=17, max_power=budget)
            except PowerInfeasibleSynthesisError:
                continue
            result.verify()
            assert result.backtracks >= 0
