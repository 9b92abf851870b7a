"""Engine scalability — synthesis run time vs. problem size.

Not a paper artifact, but a useful engineering benchmark: the greedy
partial-clique engine is quadratic-ish in the number of operations, and
this benchmark tracks the wall-clock cost of one synthesis run on random
layered graphs of growing size so regressions in the engine's complexity
show up in the benchmark history.

The 80- and 120-operation sizes were added together with the incremental
hot-path work (cached CDFG topology, Schedule-free pasap/palap cores,
incremental locked profiles); before that work a 120-operation synthesis
took over a second, which is why the recorded history in
``BENCH_scalability.json`` starts at 40 operations.  Larger graphs
saturate the power budget that suits the small ones, so each size pins
its own budget.

The 250- and 500-operation sizes need budgets of their own: at cp + 8
with P=60 the 250-operation graph is infeasible, and so is the
500-operation one with P=80.  250 operations run at cp + 8 with P=150
and 500 at cp + 20 with P=200.  The 1000-operation point runs the
``pasap`` scheduler (select, schedule, bind, finalize) instead of the
engine.

Each synthesis point reports a per-stage breakdown in ``extra_info``,
taken from one more, instrumented run after the timed rounds: for the
engine, its initial module selection, the pasap/palap windows after each
decision, the decision scoring, commit and rollback, and the final
schedule with datapath finalize and verify (``other_s`` is the loop's
own bookkeeping); for ``pasap``, the pipeline's passes.

The graph-build points time :func:`repro.ir.serialize.from_dict` (build
plus validation) on the same generator's graphs at 250, 500 and 1000
operations -- the cost every task resolve pays -- and hold the largest to
50 ms.  Before the cycle check in ``CDFG.add_edge`` became a search from
the new edge's consumer, the 1000-op build took over a second.

Record a run into the benchmark history with::

    python benchmarks/record.py --label after

(see :mod:`benchmarks.record`).
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import pytest

from repro.api.pipeline import DEFAULT_PASSES, Pipeline
from repro.api.task import SynthesisTask
from repro.ir.analysis import critical_path_length
from repro.ir.serialize import from_dict, to_dict
from repro.library.selection import MinPowerSelection, selection_delays
from repro.scheduling.constraints import SynthesisConstraints
from repro.suite.generators import GeneratorConfig, random_cdfg
from repro.synthesis.engine import PowerConstrainedSynthesizer, synthesize

#: Per-size power budget: the random 120-op layered graphs need more
#: headroom than 30 power units to stay feasible at cp + 8 cycles.
POWER_BUDGETS = {10: 30.0, 20: 30.0, 40: 30.0, 80: 30.0, 120: 40.0, 250: 150.0, 500: 200.0}

#: Latency slack over the critical path per size (default 8).
LATENCY_SLACK = {500: 20}

#: Graph sizes and power budgets of the ``pasap`` scheduler points.
PASAP_BUDGETS = {1000: 80.0}

#: Graph sizes of the build benchmark, and the median build time the
#: largest must stay within.
BUILD_SIZES = (250, 500, 1000)
BUILD_BUDGET_S = 0.050


def make_case(operations: int, library, slack: int = 8):
    cdfg = random_cdfg(
        GeneratorConfig(
            operations=operations,
            inputs=4,
            levels=max(3, operations // 6),
            mul_fraction=0.3,
            sub_fraction=0.2,
            outputs=3,
            seed=operations,
        )
    )
    selection = MinPowerSelection().select(cdfg, library)
    latency = critical_path_length(cdfg, selection_delays(selection, cdfg)) + slack
    return cdfg, latency


class StagedSynthesizer(PowerConstrainedSynthesizer):
    """The engine with a stopwatch around each stage of its loop."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stages = dict.fromkeys(
            ["select_s", "windows_s", "decisions_s", "commit_s", "finalize_verify_s", "other_s"],
            0.0,
        )
        self._finalize_from = 0.0

    @contextmanager
    def _stage(self, name):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] += time.perf_counter() - started

    def _initial_selection(self, *args):
        with self._stage("select_s"):
            return super()._initial_selection(*args)

    def _windows_or_fail(self, *args):
        with self._stage("windows_s"):
            return super()._windows_or_fail(*args)

    def _best_decision(self, *args):
        with self._stage("decisions_s"):
            return super()._best_decision(*args)

    def _commit(self, *args):
        with self._stage("commit_s"):
            return super()._commit(*args)

    def _rollback(self, *args):
        with self._stage("commit_s"):
            return super()._rollback(*args)

    def _final_schedule(self, *args):
        # Everything from here to the end of synthesize() is finalize/verify.
        self._finalize_from = time.perf_counter()
        return super()._final_schedule(*args)

    def synthesize(self, cdfg):
        started = time.perf_counter()
        result = super().synthesize(cdfg)
        ended = time.perf_counter()
        self.stages["finalize_verify_s"] = ended - self._finalize_from
        self.stages["other_s"] = (ended - started) - sum(self.stages.values())
        return result


def engine_stages(cdfg, library, latency, power):
    """Per-stage seconds of one instrumented engine run."""
    synthesizer = StagedSynthesizer(library, SynthesisConstraints.of(latency, power))
    synthesizer.synthesize(cdfg)
    return {name: round(seconds, 6) for name, seconds in synthesizer.stages.items()}


@pytest.mark.parametrize("operations", sorted(POWER_BUDGETS))
def test_synthesis_scalability(benchmark, library, operations):
    cdfg, latency = make_case(operations, library, LATENCY_SLACK.get(operations, 8))
    power = POWER_BUDGETS[operations]
    result = benchmark.pedantic(
        synthesize,
        args=(cdfg, library, latency, power),
        rounds=3,
        iterations=1,
    )
    result.verify()
    assert result.latency <= latency
    benchmark.extra_info["stages"] = engine_stages(cdfg, library, latency, power)


def timed_pipeline(stages):
    """The default pipeline with each pass's seconds added to ``stages``."""

    def timed(name, fn):
        def run(ctx):
            started = time.perf_counter()
            fn(ctx)
            stages[f"{name}_s"] = stages.get(f"{name}_s", 0.0) + time.perf_counter() - started

        return run

    return Pipeline([(name, timed(name, fn)) for name, fn in DEFAULT_PASSES])


@pytest.mark.parametrize("operations", sorted(PASAP_BUDGETS))
def test_pasap_scalability(benchmark, library, operations):
    cdfg, _ = make_case(operations, library)
    task = SynthesisTask.of(
        cdfg.name, library=library.name, power_budget=PASAP_BUDGETS[operations],
        scheduler="pasap",
    )
    result = benchmark.pedantic(
        Pipeline.default().run,
        args=(task,),
        kwargs={"cdfg": cdfg, "library": library},
        rounds=3,
        iterations=1,
    )
    result.verify()
    stages = {}
    timed_pipeline(stages).run(task, cdfg=cdfg, library=library)
    benchmark.extra_info["stages"] = {name: round(s, 6) for name, s in stages.items()}


@pytest.mark.parametrize("operations", BUILD_SIZES)
def test_graph_build(benchmark, library, operations):
    cdfg, _ = make_case(operations, library)
    data = to_dict(cdfg)
    # Timed here too, so the budget holds under --benchmark-disable.
    seconds = []

    def build():
        started = time.perf_counter()
        built = from_dict(data)
        seconds.append(time.perf_counter() - started)
        return built

    built = benchmark.pedantic(build, rounds=5, iterations=1)
    assert to_dict(built) == data
    if operations == max(BUILD_SIZES):
        assert statistics.median(seconds) <= BUILD_BUDGET_S
