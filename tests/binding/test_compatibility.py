"""Unit tests for the power-aware time-extended compatibility graph (V1)."""

import pytest

from repro.binding.compatibility import (
    build_compatibility_graph,
    instance_accepts_operation,
    shared_modules,
    windows_allow_sharing,
)
from repro.binding.intervals import Interval
from repro.ir.operation import OpType
from repro.library.selection import MinPowerSelection, selection_delays, selection_powers
from repro.scheduling.constraints import PowerConstraint, TimeConstraint
from repro.scheduling.mobility import Window, compute_windows


def windows_for(cdfg, library, latency, power):
    selection = MinPowerSelection().select(cdfg, library)
    delays = selection_delays(selection, cdfg)
    powers = selection_powers(selection, cdfg)
    windows = compute_windows(
        cdfg, delays, powers, PowerConstraint(power), TimeConstraint(latency)
    )
    return windows, delays


class TestSharedModules:
    def test_add_and_sub_share_the_alu(self, library):
        names = {m.name for m in shared_modules(library, OpType.ADD, OpType.SUB)}
        assert names == {"ALU"}

    def test_two_adds_share_add_and_alu(self, library):
        names = {m.name for m in shared_modules(library, OpType.ADD, OpType.ADD)}
        assert names == {"add", "ALU"}

    def test_add_and_mul_share_nothing(self, library):
        assert shared_modules(library, OpType.ADD, OpType.MUL) == []


class TestWindowSharing:
    def test_disjoint_windows_can_share(self):
        assert windows_allow_sharing(Window(0, 2), 2, Window(4, 8), 2)

    def test_sequential_placement_inside_overlapping_windows(self):
        # a at its earliest (0..2), b at its latest (3..5)
        assert windows_allow_sharing(Window(0, 3), 2, Window(1, 3), 2)

    def test_identical_tight_windows_cannot_share(self):
        assert not windows_allow_sharing(Window(2, 2), 3, Window(2, 2), 3)

    def test_symmetry(self):
        a, b = Window(0, 1), Window(5, 9)
        assert windows_allow_sharing(a, 2, b, 2) == windows_allow_sharing(b, 2, a, 2)


class TestBuildGraph:
    def test_nodes_are_schedulable_operations(self, hal, library):
        windows, delays = windows_for(hal, library, latency=20, power=12.0)
        graph = build_compatibility_graph(hal, library, windows, delays)
        assert set(graph.operations()) == set(hal.schedulable_operations())

    def test_edges_only_between_type_compatible_ops(self, hal, library):
        windows, delays = windows_for(hal, library, latency=20, power=12.0)
        graph = build_compatibility_graph(hal, library, windows, delays)
        for pair in graph.pairs():
            type_a = hal.operation(pair.first).optype
            type_b = hal.operation(pair.second).optype
            assert shared_modules(library, type_a, type_b)

    def test_pairs_respect_windows(self, hal, library):
        windows, delays = windows_for(hal, library, latency=20, power=12.0)
        graph = build_compatibility_graph(hal, library, windows, delays)
        for pair in graph.pairs():
            assert windows_allow_sharing(
                windows[pair.first], delays[pair.first],
                windows[pair.second], delays[pair.second],
            )

    def test_looser_latency_gives_denser_graph(self, hal, library):
        tight_windows, delays = windows_for(hal, library, latency=17, power=12.0)
        loose_windows, _ = windows_for(hal, library, latency=28, power=12.0)
        tight = build_compatibility_graph(hal, library, tight_windows, delays)
        loose = build_compatibility_graph(hal, library, loose_windows, delays)
        assert len(loose.pairs()) >= len(tight.pairs())

    def test_chained_multiplications_compatible_even_at_critical_latency(self, chain, library):
        """m1 -> m2 -> m3 execute strictly one after another, so they can share
        a single serial multiplier even when T equals the critical path."""
        windows, delays = windows_for(chain, library, latency=14, power=50.0)
        graph = build_compatibility_graph(chain, library, windows, delays)
        assert graph.compatible("m1", "m2")
        assert graph.compatible("m2", "m3")
        assert graph.compatible("m1", "m3")

    def test_independent_multiplications_incompatible_without_slack(self, wide, library):
        """Two independent multiplications with identical single-point windows
        cannot share a unit (they would have to run concurrently)."""
        windows, delays = windows_for(wide, library, latency=6, power=50.0)
        graph = build_compatibility_graph(wide, library, windows, delays)
        assert not graph.compatible("m0", "m1")

    def test_best_module_is_cheapest(self, hal, library):
        windows, delays = windows_for(hal, library, latency=24, power=12.0)
        graph = build_compatibility_graph(hal, library, windows, delays)
        adds = hal.operations_of_type(OpType.ADD)
        pair = graph.pair(*sorted(adds))
        assert pair is not None
        assert pair.best_module.name == "add"

    def test_common_modules_of_mixed_clique(self, hal, library):
        windows, delays = windows_for(hal, library, latency=30, power=12.0)
        graph = build_compatibility_graph(hal, library, windows, delays)
        adds = hal.operations_of_type(OpType.ADD)
        subs = hal.operations_of_type(OpType.SUB)
        members = [adds[0], subs[0]]
        if graph.compatible(*sorted(members)):
            common = {m.name for m in graph.common_modules(members)}
            assert common == {"ALU"}

    def test_density_and_degree(self, hal, library):
        windows, delays = windows_for(hal, library, latency=24, power=12.0)
        graph = build_compatibility_graph(hal, library, windows, delays)
        assert 0.0 <= graph.density() <= 1.0
        for op in graph.operations():
            assert graph.degree(op) == len(graph.neighbours(op))


class TestInstanceAcceptance:
    def test_accepts_in_gap(self):
        busy = [Interval(0, 4), Interval(8, 12)]
        assert instance_accepts_operation("x", Window(2, 6), 4, busy) == 4

    def test_rejects_when_window_fully_busy(self):
        busy = [Interval(0, 10)]
        assert instance_accepts_operation("x", Window(2, 5), 4, busy) is None

    def test_accepts_empty_instance(self):
        assert instance_accepts_operation("x", Window(3, 7), 2, []) == 3
