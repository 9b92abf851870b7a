"""Benchmark inputs: pinned case pools and the seeded draws over them.

Every workload draws its inputs from pools fixed in ``cases.json`` (written
once by ``pin.py``), so the answer to every input the benchmark can generate
is pinned next to it.  ``--seed`` chooses budgets inside pinned intervals
where every answer is constant, which pool entries a run uses, and in what
order; the draws are stratified so that every seed gives the same task
count and about the same feasible share and cost.

Nothing here times anything: building the inputs is excluded from every
metric.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
CASES_FILE = HERE / "cases.json"

#: Figure-2 graphs at their registered latency bounds.
DSE_GRAPHS = {"hal": 17, "cosine": 19, "elliptic": 22, "fir": 12, "ar": 20}
DSE_SCHEDULERS = ("engine", "pasap", "two_step", "list", "force_directed")
PORTFOLIO_OPTIONS = {"portfolio_strategies": ["engine", "pasap+greedy"]}
#: The fixed power grid, as shares of each graph's range from the analytic
#: feasibility floor to 1.2 x its unconstrained peak; the portfolio slice
#: races the upper half.
DSE_GRID = (0.125, 0.375, 0.625, 0.875)

#: exact's default operation cap: at or below it the ILP optimum is
#: cross-checked against the exhaustive search.
EXACT_CAP = 12

#: serve-mix: hot-set composition (per named graph one feasible and one
#: infeasible budget, plus inline graphs) and the share of fresh keys.
SERVE_HOT_INLINE = 6
SERVE_INLINE_OPS = 80
SERVE_FRESH_SHARE = 0.1
SERVE_PASS_JOBS = 100


def load_cases() -> Dict[str, Any]:
    return json.loads(CASES_FILE.read_text())


def layered_graph(operations: int, seed: int) -> Tuple[Dict[str, Any], int]:
    """A seeded layered ``random_cdfg`` as an inline dict, and its bound cp + 8."""
    from repro.ir.analysis import critical_path_length
    from repro.ir.serialize import to_dict
    from repro.library import default_library
    from repro.library.selection import MinPowerSelection, selection_delays
    from repro.suite.generators import GeneratorConfig, random_cdfg

    cdfg = random_cdfg(
        GeneratorConfig(
            operations=operations,
            inputs=4,
            levels=max(3, operations // 6),
            mul_fraction=0.3,
            sub_fraction=0.2,
            outputs=3,
            seed=seed,
        )
    )
    selection = MinPowerSelection().select(cdfg, default_library())
    latency = critical_path_length(cdfg, selection_delays(selection, cdfg)) + 8
    return to_dict(cdfg), latency


class Case:
    """One input: an id, the task spec handed to the program, the pinned answer."""

    __slots__ = ("id", "spec", "expect")

    def __init__(self, case_id: str, spec: Dict[str, Any], expect: List[Any]) -> None:
        self.id = case_id
        self.spec = spec
        self.expect = expect


def dse_cases(seed: int, cases: Dict[str, Any]) -> List[Case]:
    """The Figure-2 exploration: every graph x scheduler over the power grid.

    Each grid level's budget moves by a seeded amount within its pinned
    jitter, so every seed asks for new content addresses (a cold cache)
    whose answers are the level's.  The portfolio draws a budget of its
    own, so the standalone tasks' records cannot pre-answer its contenders.
    """
    rng = random.Random(f"dse:{seed}")
    out: List[Case] = []
    for graph, latency in DSE_GRAPHS.items():
        for level in cases["dse"][graph]:
            power = round(level["power"] + rng.random() * level["jitter"], 6)
            for scheduler, expect in level["expect"].items():
                spec = {"graph": graph, "latency": latency, "power_budget": power,
                        "scheduler": scheduler}
                if scheduler == "portfolio":
                    spec["power_budget"] = round(level["power"] + rng.random() * level["jitter"], 6)
                    spec["options"] = dict(PORTFOLIO_OPTIONS)
                out.append(Case(f"dse/{graph}/P{spec['power_budget']}/{scheduler}", spec, expect))
    rng.shuffle(out)
    return out


def ilp_cases(seed: int, cases: Dict[str, Any]) -> List[Case]:
    """Every pinned ILP case, in a seeded order.

    The list is fixed: a drawn subset would let one heavy case decide a
    run's time.  An ILP budget cannot move without changing the search, so
    the seed only orders the cases.
    """
    chosen = list(cases["ilp"])
    random.Random(f"ilp:{seed}").shuffle(chosen)
    return [Case(entry["id"], entry["spec"], entry["expect"]) for entry in chosen]


class ServeMix:
    """serve-mix inputs: the hot set (also the state dir's history) and a job stream.

    Nine jobs in ten repeat a hot-set spec (warm: answered from the cache),
    every spec equally often; the rest are fresh keys, named graphs taken in
    turn, each at a seeded budget no earlier job used, drawn inside a pinned
    interval where the answer is constant.  Every pass has the same mix, so
    passes and seeds differ in order and budgets, not in work.
    """

    def __init__(self, seed: int, cases: Dict[str, Any]) -> None:
        self.seed = seed
        rng = random.Random(f"serve-hot:{seed}")
        named = [
            rng.choice([entry for entry in cases["serve"]["named"]
                        if entry["graph"] == graph and entry["expect"][0] == feasible])
            for graph in DSE_GRAPHS
            for feasible in (True, False)
        ]
        inline = rng.sample(cases["serve"]["inline"], SERVE_HOT_INLINE)
        self.hot: List[Case] = [Case(entry["id"], entry["spec"], entry["expect"]) for entry in named]
        for entry in inline:
            graph, latency = layered_graph(SERVE_INLINE_OPS, entry["graph_seed"])
            if latency != entry["latency"]:
                raise RuntimeError(f"serve graph {entry['graph_seed']} no longer matches its pin")
            self.hot.append(
                Case(entry["id"], {"graph": graph, "latency": latency,
                                   "power_budget": entry["power"]}, entry["expect"])
            )
        self.fresh = cases["serve"]["fresh"]
        self._used: set = set()

    def jobs(self, pass_index: int) -> List[Case]:
        """The ``pass_index``-th pass: SERVE_PASS_JOBS cases in submission order."""
        rng = random.Random(f"serve-jobs:{self.seed}:{pass_index}")
        fresh = round(SERVE_PASS_JOBS * SERVE_FRESH_SHARE)
        out = [self.hot[i % len(self.hot)] for i in range(SERVE_PASS_JOBS - fresh)]
        for i in range(fresh):
            interval = self.fresh[i % len(self.fresh)]
            while True:
                power = round(rng.uniform(interval["low"], interval["high"]), 9)
                if (interval["graph"], power) not in self._used:
                    break
            self._used.add((interval["graph"], power))
            out.append(
                Case(
                    f"fresh/{interval['graph']}/P{power}",
                    {"graph": interval["graph"], "latency": interval["latency"],
                     "power_budget": power},
                    interval["expect"],
                )
            )
        rng.shuffle(out)
        return out
