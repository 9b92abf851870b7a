"""The compact precedence form answers like the strong one.

Above ``STRONG_ROW_CAP`` strong precedence rows the formulation falls
back to one start-time-difference row per edge.  No benchmark model is
that large, so these tests set the cap to zero and check the fallback on
``golden_ilp.json`` cases with mobility (a model without any strong row
keeps the strong form even then): the same verdict and optimal makespan
as the golden (strong-form) answer, and a certified result.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api.task import SynthesisTask
from repro.library import default_library
from repro.library.selection import MinPowerSelection, selection_delays, selection_powers
from repro.lp import formulation
from repro.lp.formulation import build_schedule_model
from repro.scheduling.constraints import PowerConstraint
from repro.suite.registry import build_benchmark
from repro.verify.certificate import check_certificate

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "golden", "golden_ilp.json")

NAMES = ("chain-T26-P10.0", "tree-T7-P15.0", "tree-T6-P12.0", "butterfly-T8-P12.0")

with open(GOLDEN) as _handle:
    _GOLDEN = {
        f"{case['benchmark']}-T{case['latency']}-P{case['power']}": case
        for case in json.load(_handle)["cases"]
    }
CASES = [_GOLDEN[name] for name in NAMES]


@pytest.fixture
def compact(monkeypatch):
    monkeypatch.setattr(formulation, "STRONG_ROW_CAP", 0)


def _instance(case):
    cdfg = build_benchmark(case["benchmark"])
    selection = MinPowerSelection().select(cdfg, default_library())
    budget = (
        PowerConstraint.unbounded() if case["power"] is None else PowerConstraint(case["power"])
    )
    return cdfg, selection_delays(selection, cdfg), selection_powers(selection, cdfg), budget


def _precedence_rows(case):
    cdfg, delays, powers, budget = _instance(case)
    model = build_schedule_model(cdfg, delays, powers, budget, case["latency"])
    return [c.name for c in model.program.constraints if c.name.startswith("prec[")]


@pytest.mark.parametrize("case", CASES, ids=NAMES)
def test_compact_form_is_one_row_per_edge(case, compact):
    rows = _precedence_rows(case)
    assert rows and not any("@" in name for name in rows)
    assert len(rows) == len(list(build_benchmark(case["benchmark"]).edges()))


@pytest.mark.parametrize("case", CASES, ids=NAMES)
def test_compact_form_matches_the_golden_verdict(case, compact):
    assert case["feasible"]
    task = SynthesisTask(
        graph=case["benchmark"],
        latency=case["latency"],
        power_budget=case["power"],
        scheduler="ilp",
        verify=False,
    )
    result = task.run()
    assert result.schedule.metadata["optimal_makespan"] == case["optimal_makespan"]
    report = check_certificate(result)
    assert report.ok, report.describe()


def test_the_strong_form_is_the_default():
    rows = _precedence_rows(CASES[1])
    assert rows and all("@" in name for name in rows)
