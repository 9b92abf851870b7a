"""The portfolio correctness property, checked over seeded random specs.

For any task spec, the portfolio record must be **bit-identical** to the
standalone record of some single contender (its named winner), always
certificate-gated, and an infeasible portfolio verdict must agree with
every contender's own standalone verdict.  These are the invariants
that make the meta-strategy safe to cache and to cross-check
differentially.
"""

import dataclasses
import random

import pytest

from repro.api.batch import run_task
from repro.portfolio import portfolio_task, run_portfolio
from repro.portfolio.runner import EXECUTION_ERROR

#: Fast contender pool (the exact engines would slow the property loop).
POOL = ["engine", "pasap", "palap", "force_directed"]

#: Scalar fields a portfolio record copies from its winner.
COPIED = ("area", "fu_area", "peak_power", "latency", "registers", "backtracks")


def sample_task(seed):
    rng = random.Random(f"portfolio-property:{seed}")
    subset = rng.sample(POOL, k=rng.randint(2, len(POOL)))
    return portfolio_task(
        "hal",
        latency=rng.choice([17, 20, 25]),
        power_budget=rng.choice([2.0, 9.0, 12.0, 20.0]),
        strategies=subset,
    )


def standalone(task, runner):
    """The standalone records of every contender, keyed by pair label."""
    records = {}
    for slot in runner.slots:
        records[slot.contender.label] = run_task(slot.contender.task, keep_result=False)
    return records


@pytest.mark.parametrize("seed", range(6))
def test_portfolio_equals_some_single_strategy(seed):
    task = sample_task(seed)
    outcome = run_portfolio(task)
    record = outcome.record
    runner_view = run_portfolio(task)  # determinism probe
    assert runner_view.winner == outcome.winner
    assert runner_view.record.feasible == record.feasible

    from repro.portfolio.runner import PortfolioRunner

    records = standalone(task, PortfolioRunner(task))

    if record.feasible:
        assert record.winner in records
        twin = records[record.winner]
        # certificate gate: the winner's standalone run is itself feasible,
        # and the portfolio record is bit-identical to it on every scalar
        assert twin.feasible is True
        for name in COPIED:
            assert getattr(record, name) == getattr(twin, name), name
        assert outcome.cacheable is True
    else:
        assert record.winner is None
        assert all(not rec.feasible for rec in records.values())
        if outcome.cacheable:
            # a true infeasible verdict carries the canonical-first type
            first = next(iter(records))
            assert record.error_type == records[first].error_type
        else:
            assert record.error_type == EXECUTION_ERROR
