"""Exact-search vs. ILP crossover — optimal scheduling cost vs. size.

Two exact engines decide the same makespan-minimization problem: the
exhaustive branch-and-prune search (``repro.scheduling.exact``, capped
at 12 operations by default because its worst case is exponential in
the operation count) and the time-indexed ILP
(``repro.lp``, whose cost is governed by the model size instead).  This
benchmark records both trajectories over the benchmark suite:

* on the *shared* sizes (chain/tree/butterfly/mesh, 13–18 operations,
  cap raised for the exhaustive side) each engine is timed on the same
  ``(T, P)`` point and their optima are asserted identical — the golden
  agreement invariant, measured;
* on the *large* benchmarks (hal/cosine/elliptic/ar, 20–54 operations)
  only the ILP runs: past the cap this is the only engine that still
  returns certified optima, which is the crossover the subsystem exists
  for.

Each ILP test also reports, in its ``extra_info``, where one extra
(untimed) solve spends its time: building the model, preparing the
constraint matrix (the solve-wide conversion plus every node's tableau),
simplex phases 1 and 2, and the branch-and-bound bookkeeping around them
(branching, bound dicts, result assembly).

Record a run into the benchmark history with::

    python benchmarks/record.py --bench bench_ilp_vs_exact \
        --history BENCH_scalability.json --label ilp-vs-exact
"""

from __future__ import annotations

import time

import pytest

from repro.ir.analysis import critical_path_length
from repro.library.selection import (
    MinPowerSelection,
    selection_delays,
    selection_powers,
)
from repro.lp import formulation, simplex
from repro.lp.formulation import ilp_schedule
from repro.scheduling.constraints import PowerConstraint
from repro.scheduling.exact import minimum_latency_under_power
from repro.suite.registry import build_benchmark

#: Shared cases: benchmark -> (latency bound, power budget, exact cap).
#: All small enough that the exhaustive search terminates quickly once
#: its cap is raised to cover the graph.
SHARED_CASES = {
    "chain": (26, 10.0, 13),
    "tree": (7, 15.0, 16),
    "butterfly": (9, 15.0, 16),
    "mesh": (14, 20.0, 18),
}

#: ILP-only cases: benchmark -> (latency slack over cp, power budget).
#: Every one is beyond the exhaustive search's reach.
LARGE_CASES = {
    "hal": (4, 15.0),
    "cosine": (3, 40.0),
    "elliptic": (3, 25.0),
    "ar": (3, 25.0),
}


#: Stage -> the functions whose time it sums.
STAGES = {
    "model_build_s": [(formulation, "build_schedule_model")],
    "matrix_prepare_s": [
        (simplex.PreparedProgram, "__init__"),
        (simplex._Tableau, "__init__"),
    ],
    "phase1_s": [(simplex._Tableau, "phase_one")],
    "phase2_s": [(simplex._Tableau, "phase_two")],
    "solve_s": [(formulation, "solve_model")],
}


def stage_times(monkeypatch, call) -> dict:
    """Seconds per ILP stage of one ``call()``, for ``extra_info``."""
    totals = dict.fromkeys(STAGES, 0.0)
    for stage, targets in STAGES.items():
        for owner, name in targets:
            original = getattr(owner, name)

            def timed(*args, _original=original, _stage=stage, **kwargs):
                started = time.perf_counter()
                try:
                    return _original(*args, **kwargs)
                finally:
                    totals[_stage] += time.perf_counter() - started

            monkeypatch.setattr(owner, name, timed)
    call()
    monkeypatch.undo()
    solve = totals.pop("solve_s")
    totals["bookkeeping_s"] = solve - sum(
        totals[stage] for stage in ("matrix_prepare_s", "phase1_s", "phase2_s")
    )
    return totals


def make_case(case: str, library):
    cdfg = build_benchmark(case)
    selection = MinPowerSelection().select(cdfg, library)
    delays = selection_delays(selection, cdfg)
    powers = selection_powers(selection, cdfg)
    return cdfg, delays, powers


@pytest.mark.parametrize("case", sorted(SHARED_CASES))
def test_exact_on_shared_sizes(case, benchmark, library):
    latency, power, cap = SHARED_CASES[case]
    cdfg, delays, powers = make_case(case, library)
    optimum = benchmark.pedantic(
        minimum_latency_under_power,
        args=(cdfg, delays, powers, PowerConstraint(power)),
        kwargs={"horizon": latency, "max_operations": cap},
        rounds=3,
        iterations=1,
    )
    assert optimum is not None


@pytest.mark.parametrize("case", sorted(SHARED_CASES))
def test_ilp_on_shared_sizes(case, benchmark, library, monkeypatch):
    latency, power, cap = SHARED_CASES[case]
    cdfg, delays, powers = make_case(case, library)
    args = (cdfg, delays, powers, PowerConstraint(power), latency)
    schedule = benchmark.pedantic(ilp_schedule, args=args, rounds=3, iterations=1)
    benchmark.extra_info.update(stage_times(monkeypatch, lambda: ilp_schedule(*args)))
    # The measured agreement invariant: both exact engines return the
    # same optimum on every shared size.
    optimum = minimum_latency_under_power(
        cdfg,
        delays,
        powers,
        PowerConstraint(power),
        horizon=latency,
        max_operations=cap,
    )
    assert schedule.metadata["optimal_makespan"] == optimum


@pytest.mark.parametrize("case", sorted(LARGE_CASES))
def test_ilp_beyond_the_cap(case, benchmark, library, monkeypatch):
    slack, power = LARGE_CASES[case]
    cdfg, delays, powers = make_case(case, library)
    latency = critical_path_length(cdfg, delays) + slack
    args = (cdfg, delays, powers, PowerConstraint(power), latency)
    schedule = benchmark.pedantic(ilp_schedule, args=args, rounds=3, iterations=1)
    benchmark.extra_info.update(stage_times(monkeypatch, lambda: ilp_schedule(*args)))
    assert schedule.metadata["optimal_makespan"] <= latency
    assert schedule.respects_precedence()
