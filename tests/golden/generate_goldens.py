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
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

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
from repro.scheduling.mobility import compute_windows
from repro.scheduling.palap import palap_schedule
from repro.scheduling.pasap import pasap_schedule
from repro.scheduling.two_step import two_step_schedule
from repro.suite.generators import GeneratorConfig, random_cdfg
from repro.suite.registry import build_benchmark
from repro.synthesis.engine import synthesize

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT = os.path.join(HERE, "golden_schedules.json")

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


if __name__ == "__main__":
    main()
