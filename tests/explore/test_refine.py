"""Tests for the adaptive frontier refiner (repro.explore.refine)."""

import math

import pytest

from repro.explore import AdaptiveSweepResult, ResultCache, adaptive_power_sweep
from repro.synthesis.explore import (
    SweepResult,
    default_power_grid,
    minimum_feasible_power,
    power_area_sweep,
)

RESOLUTION = 2.0

#: (fixture name, latency, power cap) — the acceptance benchmarks.
CASES = [
    ("hal", 17, 60.0),
    ("elliptic", 19, 60.0),
    ("fir", 12, 100.0),
]


def dense_grid(p_min, cap, resolution):
    """A fixed grid at least as fine as ``resolution``."""
    steps = max(2, math.ceil((cap - p_min) / resolution) + 1)
    return default_power_grid(p_min, cap, steps)


class TestFrontierReproduction:
    @pytest.mark.parametrize("bench,latency,cap", CASES)
    def test_matches_dense_grid_with_fewer_synthesis_calls(
        self, bench, latency, cap, request, library
    ):
        cdfg = request.getfixturevalue(bench)
        p_min = minimum_feasible_power(cdfg, library, latency)
        grid = dense_grid(p_min, cap, RESOLUTION)
        dense = power_area_sweep(cdfg, library, latency, grid, cumulative_best=True)
        adaptive = adaptive_power_sweep(
            cdfg,
            library,
            latency,
            p_min=p_min,
            p_max=cap,
            resolution=RESOLUTION,
            cumulative_best=True,
        )
        # strictly fewer synthesis runs than the dense grid
        assert adaptive.synthesis_calls < len(grid)
        assert adaptive.synthesis_calls == adaptive.probes  # no cache: all real
        # the dense frontier is reproduced at every dense budget
        for point in dense.points:
            if point.feasible:
                assert adaptive.frontier_area(point.power_budget) == point.area

    @pytest.mark.parametrize("bench,latency,cap", CASES)
    def test_no_frontier_step_wider_than_resolution(
        self, bench, latency, cap, request, library
    ):
        cdfg = request.getfixturevalue(bench)
        adaptive = adaptive_power_sweep(
            cdfg, library, latency, p_max=cap, resolution=RESOLUTION
        )
        for left, right in zip(adaptive.points, adaptive.points[1:]):
            changed = left.feasible != right.feasible or (
                left.feasible and abs(left.area - right.area) > 1e-6
            )
            if changed:
                assert right.power_budget - left.power_budget <= RESOLUTION + 1e-9


class TestRefinerShape:
    def test_result_is_a_sweep_result(self, hal, library):
        sweep = adaptive_power_sweep(hal, library, 17, p_max=40.0, resolution=4.0)
        assert isinstance(sweep, SweepResult)
        assert isinstance(sweep, AdaptiveSweepResult)
        assert sweep.benchmark == "hal" and sweep.latency_bound == 17
        budgets = [p.power_budget for p in sweep.points]
        assert budgets == sorted(budgets)
        assert sweep.feasible_points()
        assert sweep.resolution == 4.0
        assert sweep.probes == len(sweep.points)

    def test_cumulative_best_is_monotone(self, hal, library):
        sweep = adaptive_power_sweep(
            hal, library, 17, p_max=60.0, resolution=2.0, cumulative_best=True
        )
        assert sweep.is_monotone_non_increasing()

    def test_feasibility_boundary_is_pinned_to_resolution(self, hal, library):
        """Probing from below the true minimum power localizes the
        feasibility edge within the requested resolution."""
        sweep = adaptive_power_sweep(
            hal, library, 17, p_min=5.0, p_max=30.0, resolution=1.0
        )
        infeasible = [p for p in sweep.points if not p.feasible]
        feasible = [p for p in sweep.points if p.feasible]
        assert infeasible and feasible
        edge = feasible[0].power_budget - infeasible[-1].power_budget
        assert 0 < edge <= 1.0 + 1e-9

    def test_degenerate_range_collapses_to_one_probe(self, hal, library):
        sweep = adaptive_power_sweep(
            hal, library, 17, p_min=20.0, p_max=10.0, resolution=1.0
        )
        assert [p.power_budget for p in sweep.points] == [20.0]

    def test_seed_budgets_are_probed(self, hal, library):
        sweep = adaptive_power_sweep(
            hal,
            library,
            17,
            p_min=9.0,
            p_max=40.0,
            resolution=4.0,
            seed_budgets=[15.0, 99.0],  # out-of-range seeds are dropped
        )
        budgets = [p.power_budget for p in sweep.points]
        assert 15.0 in budgets
        assert all(9.0 <= b <= 40.0 for b in budgets)

    def test_resolution_below_budget_rounding_rejected(self, hal, library):
        """The step-width guarantee cannot be honored below two rounding
        quanta, so such resolutions are an error, not a silent violation."""
        for bad in (0.0, -1.0, 0.0005, 0.001):
            with pytest.raises(ValueError):
                adaptive_power_sweep(hal, library, 17, resolution=bad)

    def test_figure2_adaptive_rejects_parallel_jobs(self):
        from repro.reporting.experiments import figure2_experiment

        with pytest.raises(ValueError):
            figure2_experiment(cases=[("hal", 17)], adaptive=True, jobs=4)

    def test_no_budget_synthesizes_twice_even_without_a_cache(
        self, hal, library, monkeypatch
    ):
        """The p_min bisection's final probe doubles as the refiner's low
        endpoint; synthesis_calls reports every real pipeline run."""
        from repro.api.pipeline import Pipeline

        synthesized = []
        original = Pipeline.run

        def counting(self, task, cdfg=None, library=None):
            synthesized.append(task.power_budget)
            return original(self, task, cdfg=cdfg, library=library)

        monkeypatch.setattr(Pipeline, "run", counting)
        sweep = adaptive_power_sweep(hal, library, 17, p_max=40.0, resolution=4.0)
        assert len(synthesized) == len(set(synthesized))
        assert sweep.synthesis_calls == len(synthesized)
        assert sweep.synthesis_calls > sweep.probes  # bisection cost included


class TestPortfolioRefiner:
    def test_cacheless_portfolio_sweep_matches_a_cached_one(
        self, hal, library, tmp_path
    ):
        """Without a cache the probes go through an in-process memo that
        has no read/write flags; the races must run their contenders
        against it, not turn every probe into an execution error."""
        cacheless = adaptive_power_sweep(
            hal, library, 17, p_max=40.0, resolution=4.0, portfolio=True
        )
        cached = adaptive_power_sweep(
            hal, library, 17, p_max=40.0, resolution=4.0, portfolio=True,
            cache=ResultCache(tmp_path),
        )
        engine = adaptive_power_sweep(hal, library, 17, p_max=40.0, resolution=4.0)

        def frontier(sweep):
            return [(p.power_budget, p.feasible, p.area) for p in sweep.points]

        assert cacheless.points and all(p.feasible for p in cacheless.points)
        assert frontier(cacheless) == frontier(cached)
        # engine is the canonical-first contender: where it is feasible
        # it wins, so the portfolio frontier is the engine's
        assert frontier(cacheless) == frontier(engine)


class TestRefinerCaching:
    def test_refined_rerun_is_free(self, hal, library, tmp_path):
        cache = ResultCache(tmp_path)
        first = adaptive_power_sweep(
            hal, library, 17, p_max=40.0, resolution=2.0, cache=cache
        )
        # synthesis_calls reports the *whole* cost, including the internal
        # minimum-power bisection (whose final probe doubles as the
        # refiner's low endpoint, so it is never synthesized twice)
        assert first.synthesis_calls > first.probes - 1 > 0
        second = adaptive_power_sweep(
            hal, library, 17, p_max=40.0, resolution=2.0, cache=ResultCache(tmp_path)
        )
        assert second.synthesis_calls == 0
        assert second.probes == first.probes
        assert [(p.power_budget, p.area) for p in second.points] == [
            (p.power_budget, p.area) for p in first.points
        ]

    def test_dense_sweep_warms_the_refiner(self, hal, library, tmp_path):
        cache = ResultCache(tmp_path)
        p_min = minimum_feasible_power(hal, library, 17, cache=cache)
        power_area_sweep(
            hal, library, 17, default_power_grid(p_min, 40.0, 16), cache=cache
        )
        refined = adaptive_power_sweep(
            hal,
            library,
            17,
            p_min=p_min,
            p_max=40.0,
            resolution=2.0,
            cache=ResultCache(tmp_path),
        )
        # bisection midpoints of [p_min, 40] coincide with grid points only
        # rarely, but the endpoints always hit
        assert refined.synthesis_calls < refined.probes
