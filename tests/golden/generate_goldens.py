"""Regenerate the golden-schedule fixtures.

Run from the repository root against a *known-good* tree::

    PYTHONPATH=src python tests/golden/generate_goldens.py

The emitted ``golden_schedules.json`` pins the exact ``start_times`` the
force-directed, list, two-step, pasap, palap and engine schedulers
produce on the registered benchmarks and a couple of random layered
graphs (plus the list scheduler's allocation and the two-step repair
outcome).  The golden
tests (:mod:`tests.scheduling.test_golden_schedules`) then assert that
performance work on the hot paths never changes a single start time.

The fixtures checked into the repository were generated from the
pre-optimization (seed) implementations, so passing golden tests mean
the optimized schedulers are bit-identical to the originals.

It also writes ``golden_engine.json``: the engine on larger graphs (the
120- and 250-operation graphs of ``benchmarks/bench_scalability.py``),
on a (T, P) corner that takes the backtrack-and-lock rule, the exact
error text of infeasible corners, and :func:`compute_windows` under a
locked set that grows one operation at a time.  Each engine case pins
the binding and the decision trace as well as the start times.  These
were generated before the engine's hot-path rework (wave counters,
bisected busy calendars, per-round memos).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.ir.analysis import critical_path_length
from repro.ir.cdfg import CDFG
from repro.library import default_library
from repro.library.selection import (
    MinPowerSelection,
    selection_delays,
    selection_powers,
)
from repro.scheduling.constraints import PowerConstraint, TimeConstraint
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
from repro.scheduling.pasap import PowerInfeasibleError
from repro.synthesis.engine import synthesize
from repro.synthesis.result import SynthesisError

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT = os.path.join(HERE, "golden_schedules.json")
ENGINE_OUTPUT = os.path.join(HERE, "golden_engine.json")

#: (case name, builder kwargs) — the graphs the goldens cover.
GRAPH_CASES: List[Tuple[str, Dict]] = [
    ("hal", {}),
    ("elliptic", {}),
    ("fir", {}),
    ("cosine", {}),
    ("random20", {"operations": 20, "seed": 7}),
    ("random30", {"operations": 30, "seed": 13}),
]

#: Engine (latency, power) constraint pairs per graph; chosen feasible.
ENGINE_CONSTRAINTS: Dict[str, Tuple[int, float]] = {
    "hal": (17, 12.0),
    "elliptic": (22, 25.0),
    "fir": (18, 25.0),
    "cosine": (15, 30.0),
    "random20": (0, 30.0),  # latency 0 → critical path + 6
    "random30": (0, 30.0),
}

#: Power budgets for the pure pasap/palap goldens.
POWER_BUDGETS: Dict[str, float] = {
    "hal": 12.0,
    "elliptic": 25.0,
    "fir": 25.0,
    "cosine": 30.0,
    "random20": 30.0,
    "random30": 30.0,
}


#: Power budgets for the two-step goldens: below each graph's
#: force-directed peak, so the repair pass has work to do (and on some
#: graphs gives up, which is pinned too).
TWO_STEP_BUDGETS: Dict[str, float] = {
    "hal": 7.5,
    "elliptic": 10.0,
    "fir": 15.0,
    "cosine": 17.0,
    "random20": 6.0,
    "random30": 10.0,
}


def build_graph(name: str, kwargs: Dict) -> CDFG:
    if kwargs:
        config = GeneratorConfig(
            operations=kwargs["operations"],
            inputs=4,
            levels=max(3, kwargs["operations"] // 5),
            mul_fraction=0.3,
            sub_fraction=0.2,
            outputs=2,
            seed=kwargs["seed"],
        )
        return random_cdfg(config)
    return build_benchmark(name)


#: Engine cases of golden_engine.json: (graph, latency, power).  A
#: ``scalN`` graph is bench_scalability's N-operation layered graph and a
#: latency of -k means its critical path + k.
ENGINE_CASES: Dict[str, Tuple[str, int, float]] = {
    "scal120": ("scal120", -8, 40.0),
    "scal250": ("scal250", -8, 150.0),
    # 9.3 lies in the dse-sweep power interval of hal at T=17 whose
    # engine run takes the backtrack-and-lock rule once.
    "hal_backtrack": ("hal", 17, 9.3),
}

#: Infeasible engine corners whose error type and text are pinned.
ERROR_CASES: List[Tuple[str, int, float]] = [
    ("hal", 8, 2.0),  # latency below the all-fastest critical path
    ("hal", 10, 2.0),  # one operation draws more than P
    ("hal", 10, 9.0),  # palap places an operation before cycle 0
    ("hal", 12, 12.0),  # collapsed windows
    ("cosine", 17, 20.0),
    ("fir", 20, 20.0),
]

#: Growing-locked-set window cases: (graph, power budget or None for an
#: unbounded one).  The latency is the graph's pure-scheduler bound.
LOCKED_WINDOW_CASES: Dict[str, Tuple[str, Optional[float]]] = {
    "random30_unbounded": ("random30", None),
    "hal_unbounded": ("hal", None),
    "random30_p30": ("random30", 30.0),
}


def scalability_graph(operations: int) -> CDFG:
    """The layered graph bench_scalability.py builds for ``operations``."""
    return random_cdfg(
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


def engine_graph(name: str) -> CDFG:
    if name.startswith("scal"):
        return scalability_graph(int(name[len("scal"):]))
    for case_name, kwargs in GRAPH_CASES:
        if case_name == name:
            return build_graph(name, kwargs)
    return build_benchmark(name)


def engine_latency(cdfg: CDFG, library, latency: int) -> int:
    if latency >= 0:
        return latency
    selection = MinPowerSelection().select(cdfg, library)
    return critical_path_length(cdfg, selection_delays(selection, cdfg)) - latency


def locked_window_steps(
    cdfg: CDFG, delays, powers, power: PowerConstraint, time: TimeConstraint
) -> Dict:
    """Windows after each of a growing series of locks.

    Operations are locked in topological order, alternately at the
    earliest and the latest start of their current window, the way the
    engine's locked set grows by one operation per committed decision.
    A lock that makes the windows infeasible records the error and ends
    the series.
    """
    cache = WindowCache()
    locked: Dict[str, int] = {}
    steps: List[Dict] = []
    windows = compute_windows(cdfg, delays, powers, power, time, cache=cache)
    order = [n for n in cdfg.topological_order() if not cdfg.operation(n).is_virtual]
    for index, name in enumerate(order):
        window = windows[name]
        locked[name] = window.earliest if index % 2 == 0 else window.latest
        try:
            windows = compute_windows(
                cdfg, delays, powers, power, time, locked=locked, cache=cache
            )
        except PowerInfeasibleError as exc:
            steps.append({"lock": [name, locked[name]], "error": str(exc)})
            break
        steps.append(
            {
                "lock": [name, locked[name]],
                "pasap": dict(windows.pasap_starts),
                "palap": dict(windows.palap_starts),
            }
        )
    return {"latency": time.latency, "steps": steps}


def engine_goldens(library) -> Dict:
    """The golden_engine.json content."""
    engine: Dict[str, Dict] = {}
    for case_name, (graph, latency, budget) in ENGINE_CASES.items():
        cdfg = engine_graph(graph)
        latency = engine_latency(cdfg, library, latency)
        result = synthesize(cdfg, library, latency, budget)
        engine[case_name] = {
            "graph": graph,
            "latency": latency,
            "power": budget,
            "start_times": dict(result.schedule.start_times),
            "area": result.area.total,
            "backtracks": result.backtracks,
            "binding": dict(result.datapath.binding),
            "trace": list(result.trace),
        }
        print(
            f"engine {case_name}: latency={latency} area={result.area.total:g} "
            f"backtracks={result.backtracks}"
        )

    errors: List[Dict] = []
    for graph, latency, budget in ERROR_CASES:
        try:
            synthesize(engine_graph(graph), library, latency, budget)
        except SynthesisError as exc:
            errors.append(
                {
                    "graph": graph,
                    "latency": latency,
                    "power": budget,
                    "error": type(exc).__name__,
                    "message": str(exc),
                }
            )
        else:
            raise SystemExit(f"{graph} at T={latency}, P={budget} is feasible")

    locked_windows: Dict[str, Dict] = {}
    for case_name, (graph, budget) in LOCKED_WINDOW_CASES.items():
        cdfg = engine_graph(graph)
        selection = MinPowerSelection().select(cdfg, library)
        delays = selection_delays(selection, cdfg)
        powers = selection_powers(selection, cdfg)
        latency = critical_path_length(cdfg, delays) + 6
        power = PowerConstraint.unbounded() if budget is None else PowerConstraint(budget)
        entry = locked_window_steps(cdfg, delays, powers, power, TimeConstraint(latency))
        entry.update(graph=graph, power=budget)
        locked_windows[case_name] = entry
        print(f"windows {case_name}: {len(entry['steps'])} locks")

    return {"engine": engine, "errors": errors, "locked_windows": locked_windows}


def main() -> None:
    library = default_library()
    goldens: Dict[str, Dict] = {}

    for case_name, kwargs in GRAPH_CASES:
        cdfg = build_graph(case_name, kwargs)
        selection = MinPowerSelection().select(cdfg, library)
        delays = selection_delays(selection, cdfg)
        powers = selection_powers(selection, cdfg)
        cp = critical_path_length(cdfg, delays)
        engine_latency, engine_power = ENGINE_CONSTRAINTS[case_name]
        if engine_latency <= 0:
            engine_latency = cp + 6
        # The pure schedulers run on min-power delays, so their latency
        # bound must clear the min-power critical path with slack for the
        # power stretching (the engine instead upgrades modules to meet
        # its tighter bound).
        latency = max(engine_latency, cp + 6)
        budget = POWER_BUDGETS[case_name]
        entry: Dict[str, Dict] = {
            "latency": latency,
            "engine_latency": engine_latency,
            "power": budget,
        }

        fds = force_directed_schedule(cdfg, delays, powers, latency)
        entry["force_directed"] = dict(fds.start_times)

        # The ``list`` strategy: greedy allocation for the bound, then the
        # list schedule under it with the bound as mobility hint.
        module_of = {
            name: selection[name] for name in cdfg.schedulable_operations()
        }
        allocation = greedy_allocation_for_latency(
            cdfg, delays, powers, module_of, latency
        )
        listed = list_schedule(
            cdfg, delays, powers, module_of, allocation, latency_hint=latency
        )
        entry["list"] = {
            "allocation": dict(allocation),
            "start_times": dict(listed.start_times),
        }

        two_step_budget = TWO_STEP_BUDGETS[case_name]
        outcome = two_step_schedule(
            cdfg,
            delays,
            powers,
            PowerConstraint(two_step_budget),
            TimeConstraint(latency),
        )
        entry["two_step"] = {
            "power": two_step_budget,
            "start_times": dict(outcome.schedule.start_times),
            "met_power": outcome.met_power,
            "moves": outcome.moves,
        }

        pasap = pasap_schedule(cdfg, delays, powers, PowerConstraint(budget))
        entry["pasap"] = dict(pasap.start_times)

        palap = palap_schedule(
            cdfg, delays, powers, PowerConstraint(budget), latency
        )
        entry["palap"] = dict(palap.start_times)

        windows = compute_windows(
            cdfg,
            delays,
            powers,
            PowerConstraint(budget),
            TimeConstraint(latency),
        )
        entry["windows"] = {
            n: [w.earliest, w.latest] for n, w in windows.windows.items()
        }

        result = synthesize(cdfg, library, engine_latency, engine_power)
        entry["engine"] = {
            "start_times": dict(result.schedule.start_times),
            "area": result.area.total,
            "power": engine_power,
        }

        goldens[case_name] = entry
        print(f"{case_name}: latency={latency} engine_area={result.area.total:g}")

    with open(OUTPUT, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
    print(f"wrote {OUTPUT}")

    with open(ENGINE_OUTPUT, "w") as handle:
        json.dump(engine_goldens(library), handle, indent=1, sort_keys=True)
    print(f"wrote {ENGINE_OUTPUT}")


if __name__ == "__main__":
    main()
