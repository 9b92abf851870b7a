"""Write ``cases.json``: the benchmark's case pools and their pinned answers.

Run from the repository root (all sections take a few minutes)::

    PYTHONPATH=src python3 perfbench/pin.py [dse] [ilp] [serve]

Naming sections re-pins only those and keeps the others.  Every answer is
computed by the program at the commit that pins it, and every later run
is compared against it.  Re-pinning changes the benchmark's inputs, so it
is a change to the benchmark, made on its own.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from typing import Any, Dict, List

from cases import (
    CASES_FILE,
    DSE_GRAPHS,
    DSE_GRID,
    DSE_SCHEDULERS,
    PORTFOLIO_OPTIONS,
    SERVE_INLINE_OPS,
    layered_graph,
)

#: Widest seeded budget jitter tried per grid level, as a share of the
#: level; halved until every strategy's answer is constant across it.
JITTER_SHARE = 0.03
JITTER_TRIES = 4
JITTER_POINTS = 6
SERVE_NAMED_LEVELS = 12
SERVE_INLINE_POOL = 16
SERVE_INLINE_POWER = 30.0
#: Fuzz cases left out of ilp-optimum, the heavy tail that would dominate
#: every run: measured alone at 38 s, 80 s, 8.7 s, 1.6 s, 1.4 s and 1.0 s
#: on a 2-core x86-64 host, where every other case takes under 0.35 s.
ILP_SKIP = {("layered", 9), ("butterfly", 10), ("mesh", 15), ("butterfly", 5),
            ("butterfly", 19), ("mesh", 6)}
#: bench_ilp_vs_exact's beyond-the-cap cases: graph -> (slack over cp, P).
ILP_CAP_CASES = {"hal": (4, 15.0), "cosine": (3, 40.0), "elliptic": (3, 25.0), "ar": (3, 25.0)}
FRESH_POINTS = 10


def answer(record) -> List[Any]:
    if not record.feasible:
        return [False, None, None, None]
    return [True, record.area, record.latency, record.peak_power]


def run(spec: Dict[str, Any]):
    from repro.api.batch import run_task
    from repro.api.task import SynthesisTask

    started = time.perf_counter()
    record = run_task(SynthesisTask.from_dict(spec), verify=True)
    return record, time.perf_counter() - started


def power_range(graph: str, latency: int):
    """(analytic feasibility floor, 1.2 x the unconstrained peak) of a graph."""
    from repro.library import default_library
    from repro.library.selection import MinPowerSelection, selection_delays, selection_powers
    from repro.scheduling.constraints import minimum_feasible_power
    from repro.suite.registry import build_benchmark

    cdfg = build_benchmark(graph)
    selection = MinPowerSelection().select(cdfg, default_library())
    floor = minimum_feasible_power(
        selection_powers(selection, cdfg), selection_delays(selection, cdfg), latency
    )
    return floor, 1.2 * run({"graph": graph, "latency": latency})[0].peak_power


def dse_answers(graph: str, latency: int, power: float, portfolio: bool) -> Dict[str, Any]:
    spec = {"graph": graph, "latency": latency, "power_budget": power}
    expect = {s: answer(run(dict(spec, scheduler=s))[0]) for s in DSE_SCHEDULERS}
    if portfolio:
        race = dict(spec, scheduler="portfolio", options=dict(PORTFOLIO_OPTIONS))
        expect["portfolio"] = answer(run(race)[0])
    return expect


def pin_dse() -> Dict[str, Any]:
    pools: Dict[str, Any] = {}
    for graph, latency in DSE_GRAPHS.items():
        floor, top = power_range(graph, latency)
        levels = []
        for index, share in enumerate(DSE_GRID):
            power = round(floor + (top - floor) * share, 2)
            portfolio = index >= len(DSE_GRID) // 2
            expect = dse_answers(graph, latency, power, portfolio)
            jitter = round(JITTER_SHARE * power, 4)
            for _ in range(JITTER_TRIES):
                if all(dse_answers(graph, latency, power + jitter * k / JITTER_POINTS, portfolio)
                       == expect for k in range(1, JITTER_POINTS + 1)):
                    break
                jitter = round(jitter / 2, 4)
            else:
                jitter = 0.0
            levels.append({"power": power, "jitter": jitter, "expect": expect})
            print(f"dse {graph} P={power} jitter={jitter}", flush=True)
        pools[graph] = levels
    return pools


def pin_ilp() -> List[Dict[str, Any]]:
    from repro.api.task import SynthesisTask
    from repro.ir.analysis import critical_path_length
    from repro.library import default_library
    from repro.library.selection import MinPowerSelection, selection_delays
    from repro.suite.registry import build_benchmark
    from repro.verify.fuzz import FuzzConfig, fuzz_case_tasks

    specs = []
    for case in fuzz_case_tasks(FuzzConfig(seeds=20)):
        if case.below_floor or (case.family, case.seed) in ILP_SKIP:
            continue
        spec = dataclasses.replace(case.task, scheduler="ilp").to_dict()
        specs.append((f"ilp/fuzz/{case.family}/s{case.seed}", spec))
    library = default_library()
    for graph, (slack, power) in ILP_CAP_CASES.items():
        cdfg = build_benchmark(graph)
        delays = selection_delays(MinPowerSelection().select(cdfg, library), cdfg)
        latency = critical_path_length(cdfg, delays) + slack
        spec = SynthesisTask(graph=graph, latency=latency, power_budget=power,
                             scheduler="ilp").to_dict()
        specs.append((f"ilp/cap/{graph}", spec))
    pool = []
    for case_id, spec in specs:
        record, cost = run(spec)
        print(f"{case_id}: {cost:.3f}s feasible={record.feasible}", flush=True)
        pool.append({"id": case_id, "spec": spec, "expect": answer(record),
                     "cost_s": round(cost, 4)})
    return pool


def pin_serve() -> Dict[str, Any]:
    named = []
    for graph, latency in DSE_GRAPHS.items():
        floor, top = power_range(graph, latency)
        for index in range(SERVE_NAMED_LEVELS):
            power = round(floor + (top - floor) * index / (SERVE_NAMED_LEVELS - 1), 2)
            spec = {"graph": graph, "latency": latency, "power_budget": power}
            named.append({"id": f"hot/{graph}/P{power}", "graph": graph, "spec": spec,
                          "expect": answer(run(spec)[0])})
    inline = []
    for k in range(SERVE_INLINE_POOL):
        graph_seed = 7000 + k
        graph, latency = layered_graph(SERVE_INLINE_OPS, graph_seed)
        record, _ = run({"graph": graph, "latency": latency, "power_budget": SERVE_INLINE_POWER})
        inline.append({"id": f"hot/inline80/g{graph_seed}", "graph_seed": graph_seed,
                       "latency": latency, "power": SERVE_INLINE_POWER,
                       "expect": answer(record)})
    fresh = []
    for graph, latency in DSE_GRAPHS.items():
        peak = run({"graph": graph, "latency": latency})[0].peak_power
        low, high = round(1.05 * peak, 2), round(1.5 * peak, 2)
        answers = {
            json.dumps(answer(run({"graph": graph, "latency": latency,
                                   "power_budget": low + (high - low) * i / (FRESH_POINTS - 1)})[0]))
            for i in range(FRESH_POINTS)
        }
        if len(answers) != 1:
            print(f"fresh {graph}: answer not constant on [{low}, {high}], skipped", flush=True)
            continue
        fresh.append({"graph": graph, "latency": latency, "low": low, "high": high,
                      "expect": json.loads(answers.pop())})
    return {"named": named, "inline": inline, "fresh": fresh}


SECTIONS = {"dse": pin_dse, "ilp": pin_ilp, "serve": pin_serve}


def main(argv: List[str]) -> int:
    started = time.perf_counter()
    unknown = sorted(set(argv) - set(SECTIONS))
    if unknown:
        print(f"unknown section(s) {unknown}; choose from {sorted(SECTIONS)}", file=sys.stderr)
        return 2
    cases = json.loads(CASES_FILE.read_text()) if argv and CASES_FILE.exists() else {}
    for section in argv or SECTIONS:
        cases[section] = SECTIONS[section]()
    CASES_FILE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CASES_FILE} in {time.perf_counter() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
