"""Unit tests for the fixed benchmark CDFGs (hal, cosine, elliptic, fir, ar)."""

import pytest

from repro.ir.analysis import critical_path_length
from repro.ir.operation import OpType
from repro.ir.validate import is_valid
from repro.library.selection import (
    MinLatencySelection,
    MinPowerSelection,
    selection_delays,
)
from repro.suite.ar import ar_cdfg
from repro.suite.cosine import COSINE_LATENCIES, cosine_cdfg
from repro.suite.elliptic import ELLIPTIC_LATENCIES, elliptic_cdfg
from repro.suite.fir import fir_cdfg
from repro.suite.hal import HAL_LATENCIES, hal_cdfg
from repro.suite.registry import (
    benchmark_names,
    build_benchmark,
    figure2_cases,
    get_benchmark,
)


def serial_cp(cdfg, library):
    selection = MinPowerSelection().select(cdfg, library)
    return critical_path_length(cdfg, selection_delays(selection, cdfg))


def fastest_cp(cdfg, library):
    selection = MinLatencySelection().select(cdfg, library)
    return critical_path_length(cdfg, selection_delays(selection, cdfg))


class TestHal:
    def test_operation_mix(self, hal):
        histogram = hal.type_histogram()
        assert histogram[OpType.MUL] == 6
        assert histogram[OpType.ADD] == 2
        assert histogram[OpType.SUB] == 2
        assert histogram[OpType.GT] == 1
        assert histogram[OpType.INPUT] == 5
        assert histogram[OpType.OUTPUT] == 4

    def test_paper_latency_bounds_are_reachable(self, hal, library):
        # T=17 works with the serial multiplier, T=10 needs the parallel one.
        assert serial_cp(hal, library) <= max(HAL_LATENCIES)
        assert fastest_cp(hal, library) <= min(HAL_LATENCIES)

    def test_io_free_variant(self, library):
        core = hal_cdfg(include_io=False)
        assert not core.operations_of_type(OpType.INPUT)
        assert not core.operations_of_type(OpType.OUTPUT)
        assert is_valid(core)

    def test_structure_of_u_update(self, hal):
        # u1 = (u - 3xudx) - 3ydx: the second subtraction consumes the first.
        assert "s1_u_minus" in hal.predecessors("s2_u1")


class TestCosine:
    def test_operation_mix(self, cosine):
        histogram = cosine.type_histogram()
        assert histogram[OpType.MUL] == 14
        assert histogram[OpType.ADD] + histogram[OpType.SUB] == 24
        assert histogram[OpType.INPUT] == 8
        assert histogram[OpType.OUTPUT] == 8

    def test_paper_latency_bounds_are_reachable(self, cosine, library):
        assert serial_cp(cosine, library) <= min(COSINE_LATENCIES)

    def test_every_output_depends_on_some_input(self, cosine):
        inputs = set(cosine.operations_of_type(OpType.INPUT))
        for out in cosine.operations_of_type(OpType.OUTPUT):
            ancestors = cosine.ancestors(out)
            assert ancestors & inputs

    def test_io_free_variant(self):
        core = cosine_cdfg(include_io=False)
        assert not core.operations_of_type(OpType.INPUT)
        assert is_valid(core)


class TestElliptic:
    def test_operation_mix(self, elliptic):
        histogram = elliptic.type_histogram()
        assert histogram[OpType.MUL] == 8
        assert histogram[OpType.ADD] == 26
        assert histogram[OpType.INPUT] == 8

    def test_paper_latency_bound_reachable(self, elliptic, library):
        assert fastest_cp(elliptic, library) <= ELLIPTIC_LATENCIES[0]
        assert serial_cp(elliptic, library) <= ELLIPTIC_LATENCIES[0]

    def test_io_free_variant(self):
        assert is_valid(elliptic_cdfg(include_io=False))


class TestExtraBenchmarks:
    def test_fir_structure(self, fir, library):
        histogram = fir.type_histogram()
        assert histogram[OpType.MUL] == 16
        assert histogram[OpType.ADD] == 15
        # balanced tree: depth log2(16) = 4 additions after the multiply
        assert serial_cp(fir, library) == 1 + 4 + 4 + 1

    def test_fir_parameterized_taps(self):
        small = fir_cdfg(taps=4)
        assert small.name == "fir4"
        assert len(small.operations_of_type(OpType.MUL)) == 4
        with pytest.raises(ValueError):
            fir_cdfg(taps=1)

    def test_ar_structure(self, ar):
        histogram = ar.type_histogram()
        assert histogram[OpType.MUL] == 16
        assert histogram[OpType.ADD] == 12

    def test_ar_io_free(self):
        assert is_valid(ar_cdfg(include_io=False))


class TestRegistry:
    def test_names(self):
        assert set(benchmark_names()) >= {"hal", "cosine", "elliptic", "fir", "ar"}
        assert set(benchmark_names(paper_only=True)) == {"hal", "cosine", "elliptic"}

    def test_build(self):
        assert build_benchmark("hal").name == "hal"
        with pytest.raises(KeyError):
            build_benchmark("nonexistent")

    def test_spec_latencies(self):
        assert get_benchmark("hal").latencies == (10, 17)
        assert get_benchmark("cosine").latencies == (12, 15, 19)
        assert get_benchmark("elliptic").latencies == (22,)

    def test_figure2_cases(self):
        cases = figure2_cases()
        assert ("hal", 10) in cases and ("hal", 17) in cases
        assert ("cosine", 12) in cases and ("cosine", 15) in cases and ("cosine", 19) in cases
        assert ("elliptic", 22) in cases
        assert len(cases) == 6

    def test_rebuilding_gives_fresh_graphs(self):
        first = build_benchmark("hal")
        second = build_benchmark("hal")
        first.remove_operation("out_c")
        assert "out_c" in second
