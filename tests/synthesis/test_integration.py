"""Integration tests: the full synthesis flow on every benchmark.

These are the closest thing to the paper's evaluation run as tests: for
each (benchmark, latency) pair from Figure 2 and a spread of power budgets
the whole pipeline — initial selection, pasap/palap windows, greedy
partial-clique binding, backtracking, register allocation, interconnect
estimation — must produce a legal design, and the qualitative claims must
hold.
"""

import pytest

from repro.power.battery import low_quality_battery
from repro.power.lifetime import compare_lifetimes
from repro.suite.registry import build_benchmark, figure2_cases
from repro.synthesis.engine import synthesize
from repro.synthesis.explore import minimum_feasible_power, synthesize_point

from .test_baseline import naive_design, unconstrained_design


CASES = figure2_cases()


@pytest.mark.parametrize("bench_name,latency", CASES)
def test_every_paper_case_is_synthesizable(bench_name, latency, library):
    cdfg = build_benchmark(bench_name)
    p_min = minimum_feasible_power(cdfg, library, latency)
    for budget in (p_min, p_min * 1.5, 150.0):
        result = synthesize_point(cdfg, library, latency, budget)
        assert result is not None, f"{bench_name} T={latency} infeasible at P={budget}"
        result.verify()
        assert result.latency <= latency
        assert result.peak_power <= budget + 1e-9


@pytest.mark.parametrize("bench_name,latency", CASES)
def test_power_constraint_costs_at_most_bounded_area(bench_name, latency, library):
    """The paper's conclusion: fitting the power budget trades a *small*
    amount of area.  We assert the constrained design never costs more than
    2x the unconstrained one (in practice it is far less)."""
    cdfg = build_benchmark(bench_name)
    unconstrained = unconstrained_design(cdfg, library, latency)
    p_min = minimum_feasible_power(cdfg, library, latency)
    constrained = synthesize(cdfg, library, latency, p_min + 1.0)
    assert constrained.total_area <= 2.0 * unconstrained.total_area


@pytest.mark.parametrize("bench_name", ["hal", "cosine", "elliptic", "fir", "ar"])
def test_sharing_always_beats_naive(bench_name, library):
    cdfg = build_benchmark(bench_name)
    naive = naive_design(cdfg, library)
    latency = naive.latency + 6
    shared = unconstrained_design(cdfg, library, latency)
    assert shared.total_area < naive.total_area
    assert shared.datapath.instance_count() < naive.datapath.instance_count()


def test_tighter_latency_never_cheaper(library):
    """Across the paper's hal and cosine latency pairs, less time never
    costs less area (at unconstrained power)."""
    for bench_name, latencies in (("hal", (10, 17)), ("cosine", (12, 19))):
        cdfg = build_benchmark(bench_name)
        tight = unconstrained_design(cdfg, library, latencies[0])
        loose = unconstrained_design(cdfg, library, latencies[1])
        assert tight.total_area >= loose.total_area


def test_end_to_end_battery_story(library):
    """Figure 1 + the battery motivation in one test: the power-constrained
    design has a lower peak and lives longer on a weak battery."""
    cdfg = build_benchmark("cosine")
    spiky = naive_design(cdfg, library)
    flat = synthesize(cdfg, library, latency=15, max_power=26.0)
    assert flat.peak_power < spiky.peak_power
    battery = low_quality_battery(capacity=1e6)
    comparison = compare_lifetimes(battery, spiky.schedule, flat.schedule)
    assert comparison["extension"] > 0.0


def test_extra_benchmarks_synthesize(library):
    """The non-paper workloads exercise the same engine paths."""
    for bench_name, latency, budget in (("fir", 12, 45.0), ("ar", 20, 26.0)):
        cdfg = build_benchmark(bench_name)
        result = synthesize(cdfg, library, latency, budget)
        result.verify()
