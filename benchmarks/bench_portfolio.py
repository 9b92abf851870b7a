"""Portfolio racing — cold time-to-first-certified.

The portfolio meta-strategy's pitch is that racing a strategy subset
gets the *first certified* answer without committing to one strategy up
front.  ``test_race_cold`` races every fast contender pair on one paper
corner with no cache and no deadline, so the contenders run one at a
time, in canonical order, in this process, and the race ends at the
first certified one; it records the race-clock seconds until that
completion arrived (``extra_info["first_certified_s"]``).

Record the numbers into the repository's benchmark history with::

    python benchmarks/record.py --bench bench_portfolio \
        --history BENCH_scalability.json --label portfolio

(see :mod:`benchmarks.record`).
"""

from __future__ import annotations

import pytest

from repro.portfolio import portfolio_task, run_portfolio

#: The contender pool: every fast pair (the exact engines would dominate
#: the race clock without telling anything about racing).
PAIRS = ["engine", "pasap", "palap", "force_directed"]

#: The race under measurement.
TARGET = ("hal", 17, 12.0)


@pytest.fixture(scope="module")
def race_task():
    graph, latency, power = TARGET
    return portfolio_task(graph, latency=latency, power_budget=power, strategies=PAIRS)


def test_race_cold(benchmark, race_task):
    """The cacheless race: contenders run in canonical order until one certifies."""
    certified = []

    def race():
        outcome = run_portfolio(race_task)
        assert outcome.record.feasible is True
        assert outcome.first_certified_s is not None
        certified.append(outcome.first_certified_s)
        return outcome.first_certified_s

    benchmark.pedantic(race, rounds=3, iterations=1)
    benchmark.extra_info["first_certified_s"] = sum(certified) / len(certified)
