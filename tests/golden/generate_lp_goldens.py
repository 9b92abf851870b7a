"""Generate golden LP-path fixtures (``golden_lp.json``).

The exact simplex and the branch-and-bound above it are deterministic:
the same program always takes the same pivots.  These fixtures pin that
path, not just the answer, so an arithmetic rewrite that silently picks
another entering or leaving variable (and with it, possibly another
optimal vertex) is caught:

* ``milp`` — every ``golden_ilp.json`` case, ``bench_ilp_vs_exact``'s
  beyond-the-cap graphs and a few register-budgeted fuzz cases, solved
  through :func:`repro.lp.formulation.solve_model`: status, objective,
  branch-and-bound nodes, simplex iterations and every start time;
* ``lp`` — seeded random LPs with two-decimal coefficients (the
  denominators 20, 25 and 100 of the library's powers), mixed senses,
  finite and infinite upper bounds and some fixed variables, solved by
  :func:`repro.lp.simplex.solve_lp`: status, objective, structural
  values and iterations.

Regenerate (and say so loudly in the PR) with::

    PYTHONPATH=src python tests/golden/generate_lp_goldens.py
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from repro.ir.analysis import critical_path_length
from repro.library import default_library
from repro.library.selection import (
    MinPowerSelection,
    selection_delays,
    selection_powers,
)
from repro.lp.formulation import ILPInfeasibleError, build_schedule_model, solve_model
from repro.lp.model import EQUAL, GREATER, LESS, LinearProgram
from repro.lp.simplex import solve_lp
from repro.scheduling.constraints import PowerConstraint
from repro.suite.registry import build_benchmark
from repro.verify.fuzz import FuzzConfig, fuzz_case_tasks

HERE = os.path.dirname(os.path.abspath(__file__))

#: ``bench_ilp_vs_exact``'s beyond-the-cap cases: graph -> (slack, budget).
LARGE_CASES = {
    "hal": (4, 15.0),
    "cosine": (3, 40.0),
    "elliptic": (3, 25.0),
    "ar": (3, 25.0),
}

#: Register-budgeted fuzz cases: the first few of these families' seeds.
FUZZ_FAMILIES = ("tree", "butterfly", "chain", "layered", "mesh")
FUZZ_SEEDS = 20
FUZZ_PER_FAMILY = 2

#: Random LPs drawn by :func:`random_program`.
RANDOM_LPS = 100

#: Denominators of the library's decimal powers.
DENOMINATORS = (20, 25, 100)


def _fraction(value: Optional[Fraction]) -> Optional[str]:
    return None if value is None else str(value)


def milp_entry(case_id: str, cdfg, delays, powers, budget: Optional[float],
               latency: int, register_budget: Optional[int]) -> Dict[str, Any]:
    """Solve one scheduling model and describe its search path."""
    power = PowerConstraint.unbounded() if budget is None else PowerConstraint(budget)
    try:
        model = build_schedule_model(
            cdfg, delays, powers, power, latency, register_budget=register_budget
        )
    except ILPInfeasibleError:
        # A latency bound below the critical path: proven before any LP.
        return {"id": case_id, "status": "infeasible", "objective": None,
                "nodes": 0, "iterations": 0, "starts": None}
    outcome = solve_model(model)
    return {
        "id": case_id,
        "status": outcome.status,
        "objective": _fraction(outcome.objective),
        "nodes": outcome.nodes,
        "iterations": outcome.iterations,
        "starts": (
            None if outcome.values is None else model.decode_starts(outcome.values)
        ),
    }


def milp_specs() -> List[Tuple[Any, ...]]:
    """``milp_entry`` arguments of every pinned model, in a fixed order."""
    library = default_library()
    selector = MinPowerSelection()

    def maps(cdfg):
        selection = selector.select(cdfg, library)
        return selection_delays(selection, cdfg), selection_powers(selection, cdfg)

    specs = []
    with open(os.path.join(HERE, "golden_ilp.json")) as handle:
        for case in json.load(handle)["cases"]:
            cdfg = build_benchmark(case["benchmark"])
            delays, powers = maps(cdfg)
            specs.append((
                f"golden/{case['benchmark']}-T{case['latency']}-P{case['power']}",
                cdfg, delays, powers, case["power"], case["latency"], None,
            ))
    for name, (slack, budget) in sorted(LARGE_CASES.items()):
        cdfg = build_benchmark(name)
        delays, powers = maps(cdfg)
        latency = critical_path_length(cdfg, delays) + slack
        specs.append((f"large/{name}", cdfg, delays, powers, budget, latency, None))
    config = FuzzConfig(families=FUZZ_FAMILIES, seeds=FUZZ_SEEDS)
    taken: Dict[str, int] = {}
    for case in fuzz_case_tasks(config):
        task = case.task
        if task.register_budget is None or case.below_floor:
            continue
        if taken.get(case.family, 0) >= FUZZ_PER_FAMILY:
            continue
        taken[case.family] = taken.get(case.family, 0) + 1
        cdfg = task.resolve_graph()
        delays, powers = maps(cdfg)
        specs.append((
            f"fuzz/{case.family}/s{case.seed}", cdfg, delays, powers,
            task.power_budget, task.latency, task.register_budget,
        ))
    return specs


def _coefficient(rng: random.Random, span: int = 300) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(DENOMINATORS))


def random_program(seed: int) -> LinearProgram:
    """A small seeded LP with decimal data, mixed senses and boxes.

    Most rows hold at a drawn point inside the box (often with zero
    slack, so degenerate pivots are common); one row in eight is drawn
    blind and may make the program infeasible.
    """
    rng = random.Random(f"golden-lp:{seed}")
    program = LinearProgram(f"random{seed}")
    count = rng.randint(2, 7)
    point = []
    for index in range(count):
        draw = rng.random()
        lower = Fraction(0)
        if rng.random() < 0.3:
            lower = Fraction(rng.randint(0, 4), rng.choice(DENOMINATORS))
        if draw < 0.15:
            upper: Optional[Fraction] = lower  # fixed
        elif draw < 0.45:
            upper = None
        else:
            upper = lower + Fraction(rng.randint(1, 800), rng.choice(DENOMINATORS))
        program.add_variable(f"x{index}", lower=lower, upper=upper)
        span = Fraction(rng.randint(0, 400), 20) if upper is None else upper - lower
        point.append(lower + span * Fraction(rng.randint(0, 4), 4))
    for _ in range(rng.randint(1, 6)):
        support = rng.sample(range(count), rng.randint(1, count))
        row = {index: _coefficient(rng) or Fraction(1) for index in support}
        sense = rng.choice((LESS, LESS, GREATER, EQUAL))
        if rng.random() < 0.125:
            rhs = _coefficient(rng, 900)
        else:
            slack = Fraction(rng.choice((0, 0, rng.randint(1, 300))), rng.choice(DENOMINATORS))
            rhs = sum((row[index] * point[index] for index in support), Fraction(0))
            rhs += slack if sense == LESS else -slack if sense == GREATER else 0
        program.add_constraint(row, sense, rhs)
    program.set_objective({
        index: _coefficient(rng) for index in rng.sample(range(count), rng.randint(1, count))
    })
    return program


def lp_entry(seed: int) -> Dict[str, Any]:
    """Solve one random LP and describe its outcome."""
    solution = solve_lp(random_program(seed))
    return {
        "seed": seed,
        "status": solution.status,
        "objective": _fraction(solution.objective),
        "values": (
            None if solution.values is None
            else [str(value) for value in solution.values]
        ),
        "iterations": solution.iterations,
    }


def main() -> None:
    milp = [milp_entry(*spec) for spec in milp_specs()]
    lp = [lp_entry(seed) for seed in range(RANDOM_LPS)]
    for entry in milp:
        print(entry["id"], entry["status"], entry["objective"], entry["nodes"],
              entry["iterations"])
    statuses: Dict[str, int] = {}
    for entry in lp:
        statuses[entry["status"]] = statuses.get(entry["status"], 0) + 1
    print("random LPs:", statuses)
    path = os.path.join(HERE, "golden_lp.json")
    with open(path, "w") as handle:
        json.dump({"milp": milp, "lp": lp}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
