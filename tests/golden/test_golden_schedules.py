"""Golden-schedule equivalence tests for the optimized hot paths.

The fixtures in this directory were generated by
``generate_goldens.py`` from the *pre-optimization* (seed)
implementations of force-directed scheduling, list scheduling, the
two-step baseline, pasap, palap, the window computation and the
synthesis engine.  Every test here asserts that the
optimized code paths — cached CDFG topology, incremental FDS windows,
Schedule-free pasap/palap cores, incremental locked profiles, pruned
exact search — produce **bit-identical** start times.

If an intentional algorithmic change ever invalidates these fixtures,
regenerate them (and say so loudly in the PR)::

    PYTHONPATH=src python tests/golden/generate_goldens.py
"""

from __future__ import annotations

import json
import os

import pytest

from repro.library import default_library
from repro.library.selection import (
    MinPowerSelection,
    selection_delays,
    selection_powers,
)
from repro.scheduling import memo
from repro.scheduling.constraints import PowerConstraint, TimeConstraint
from repro.scheduling.exact import exact_schedule, minimum_latency_under_power
from repro.scheduling.force_directed import force_directed_schedule
from repro.scheduling.list_scheduler import (
    greedy_allocation_for_latency,
    list_schedule,
)
from repro.scheduling.mobility import WindowCache, compute_windows
from repro.scheduling.palap import palap_schedule
from repro.scheduling.pasap import pasap_schedule
from repro.scheduling.two_step import two_step_schedule
from repro.suite.generators import GeneratorConfig, random_cdfg
from repro.suite.registry import build_benchmark
from repro.synthesis.engine import synthesize

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "golden_schedules.json")) as _handle:
    GOLDEN = json.load(_handle)

with open(os.path.join(HERE, "golden_exact.json")) as _handle:
    GOLDEN_EXACT = json.load(_handle)

#: Mirrors GRAPH_CASES in generate_goldens.py.
RANDOM_SEEDS = {"random20": (20, 7), "random30": (30, 13)}


def build_case(case: str):
    if case in RANDOM_SEEDS:
        operations, seed = RANDOM_SEEDS[case]
        return random_cdfg(
            GeneratorConfig(
                operations=operations,
                inputs=4,
                levels=max(3, operations // 5),
                mul_fraction=0.3,
                sub_fraction=0.2,
                outputs=2,
                seed=seed,
            )
        )
    return build_benchmark(case)


@pytest.fixture(autouse=True)
def cold_memo():
    """Every golden is a fresh computation, never a memo hit."""
    memo.clear()


@pytest.fixture(scope="module")
def library():
    return default_library()


def min_power_maps(cdfg, library):
    selection = MinPowerSelection().select(cdfg, library)
    return selection_delays(selection, cdfg), selection_powers(selection, cdfg)


def min_power_modules(cdfg, library):
    selection = MinPowerSelection().select(cdfg, library)
    return {name: selection[name] for name in cdfg.schedulable_operations()}


@pytest.mark.parametrize("case", sorted(GOLDEN))
class TestGoldenSchedules:
    def test_force_directed_identical(self, case, library):
        entry = GOLDEN[case]
        cdfg = build_case(case)
        delays, powers = min_power_maps(cdfg, library)
        schedule = force_directed_schedule(cdfg, delays, powers, entry["latency"])
        assert schedule.start_times == entry["force_directed"]

    def test_list_identical(self, case, library):
        entry = GOLDEN[case]
        cdfg = build_case(case)
        delays, powers = min_power_maps(cdfg, library)
        module_of = min_power_modules(cdfg, library)
        allocation = greedy_allocation_for_latency(
            cdfg, delays, powers, module_of, entry["latency"]
        )
        assert allocation == entry["list"]["allocation"]
        schedule = list_schedule(
            cdfg, delays, powers, module_of, allocation, latency_hint=entry["latency"]
        )
        assert schedule.start_times == entry["list"]["start_times"]

    def test_two_step_identical(self, case, library):
        entry = GOLDEN[case]
        pinned = entry["two_step"]
        cdfg = build_case(case)
        delays, powers = min_power_maps(cdfg, library)
        outcome = two_step_schedule(
            cdfg,
            delays,
            powers,
            PowerConstraint(pinned["power"]),
            TimeConstraint(entry["latency"]),
        )
        assert outcome.schedule.start_times == pinned["start_times"]
        assert outcome.met_power == pinned["met_power"]
        assert outcome.moves == pinned["moves"]

    def test_pasap_identical(self, case, library):
        entry = GOLDEN[case]
        cdfg = build_case(case)
        delays, powers = min_power_maps(cdfg, library)
        schedule = pasap_schedule(cdfg, delays, powers, PowerConstraint(entry["power"]))
        assert schedule.start_times == entry["pasap"]

    def test_palap_identical(self, case, library):
        entry = GOLDEN[case]
        cdfg = build_case(case)
        delays, powers = min_power_maps(cdfg, library)
        schedule = palap_schedule(
            cdfg, delays, powers, PowerConstraint(entry["power"]), entry["latency"]
        )
        assert schedule.start_times == entry["palap"]

    def test_windows_identical(self, case, library):
        entry = GOLDEN[case]
        cdfg = build_case(case)
        delays, powers = min_power_maps(cdfg, library)
        windows = compute_windows(
            cdfg,
            delays,
            powers,
            PowerConstraint(entry["power"]),
            TimeConstraint(entry["latency"]),
        )
        observed = {n: [w.earliest, w.latest] for n, w in windows.windows.items()}
        assert observed == entry["windows"]

    def test_windows_cache_changes_nothing(self, case, library):
        """A WindowCache call sequence must match cache-free computation."""
        entry = GOLDEN[case]
        cdfg = build_case(case)
        delays, powers = min_power_maps(cdfg, library)
        power = PowerConstraint(entry["power"])
        time = TimeConstraint(entry["latency"])
        cache = WindowCache()
        # Simulate the engine's growing locked set: lock operations one by
        # one at their cache-free pasap start and compare against the
        # cache-free recomputation at every step.
        locked = {}
        baseline = compute_windows(cdfg, delays, powers, power, time)
        for name in sorted(cdfg.schedulable_operations())[:5]:
            locked[name] = baseline.pasap_starts[name]
            with_cache = compute_windows(
                cdfg, delays, powers, power, time, locked=locked, cache=cache
            )
            without_cache = compute_windows(
                cdfg, delays, powers, power, time, locked=locked
            )
            assert with_cache.pasap_starts == without_cache.pasap_starts
            assert with_cache.palap_starts == without_cache.palap_starts

    def test_engine_identical(self, case, library):
        entry = GOLDEN[case]
        cdfg = build_case(case)
        result = synthesize(
            cdfg, library, entry["engine_latency"], entry["engine"]["power"]
        )
        assert result.schedule.start_times == entry["engine"]["start_times"]
        assert result.area.total == entry["engine"]["area"]


@pytest.mark.parametrize("case", sorted(GOLDEN_EXACT))
class TestGoldenExact:
    def test_exact_identical(self, case, library):
        entry = GOLDEN_EXACT[case]
        cdfg = random_cdfg(
            GeneratorConfig(
                operations=entry["operations"],
                inputs=3,
                levels=3,
                mul_fraction=0.3,
                sub_fraction=0.2,
                outputs=1,
                seed=entry["seed"],
            )
        )
        delays, powers = min_power_maps(cdfg, library)
        budget = PowerConstraint(entry["power"])
        assert (
            minimum_latency_under_power(cdfg, delays, powers, budget)
            == entry["min_latency"]
        )
        schedule = exact_schedule(
            cdfg, delays, powers, budget, entry["latency_bound"]
        )
        assert schedule.start_times == entry["start_times"]
        assert schedule.metadata["optimal_makespan"] == entry["optimal_makespan"]
