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

import pytest

from repro.ir.analysis import critical_path_length
from repro.ir.serialize import from_dict, to_dict
from repro.library.selection import MinPowerSelection, selection_delays
from repro.suite.generators import GeneratorConfig, random_cdfg
from repro.synthesis.engine import synthesize

#: Per-size power budget: the random 120-op layered graphs need more
#: headroom than 30 power units to stay feasible at cp + 8 cycles.
POWER_BUDGETS = {10: 30.0, 20: 30.0, 40: 30.0, 80: 30.0, 120: 40.0}

#: Graph sizes of the build benchmark, and the median build time the
#: largest must stay within.
BUILD_SIZES = (250, 500, 1000)
BUILD_BUDGET_S = 0.050


def make_case(operations: int, library):
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
    latency = critical_path_length(cdfg, selection_delays(selection, cdfg)) + 8
    return cdfg, latency


@pytest.mark.parametrize("operations", sorted(POWER_BUDGETS))
def test_synthesis_scalability(benchmark, library, operations):
    cdfg, latency = make_case(operations, library)
    result = benchmark.pedantic(
        synthesize,
        args=(cdfg, library, latency, POWER_BUDGETS[operations]),
        rounds=3,
        iterations=1,
    )
    result.verify()
    assert result.latency <= latency


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
