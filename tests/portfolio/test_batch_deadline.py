"""``deadline_s`` bounds a race run inside a ``run_batch`` pool worker.

The race's contenders are grandchildren of the batch worker that runs
it: they run the same worker entry as the batch worker, against the
batch's cache directory.  A ``sleepy`` contender (30 s asleep) races
``engine`` under a 1 s deadline next to two plain tasks.
"""

import collections
import functools
import multiprocessing
import time

import pytest

from repro.api.batch import run_batch
from repro.api.task import SynthesisTask
from repro.explore.cache import ResultCache, load_journal
from repro.portfolio import PortfolioRunner, portfolio_task
from repro.registries import SCHEDULERS

DEADLINE_S = 1.0
#: Deadline plus fork, IPC and polling slack; the sleeper takes 30 s.
BOUND_S = 3.0


@pytest.fixture(autouse=True)
def sleepy():
    pasap = SCHEDULERS.get("pasap")

    @functools.wraps(pasap)
    def sleepy_strategy(ctx):
        time.sleep(30.0)
        pasap(ctx)

    SCHEDULERS.register("sleepy", sleepy_strategy)
    yield
    SCHEDULERS.unregister("sleepy")


def test_batch_worker_answers_by_the_deadline(tmp_path):
    race = portfolio_task(
        "hal",
        latency=17,
        power_budget=12.0,
        strategies=["sleepy", "engine"],
        deadline_s=DEADLINE_S,
    )
    plain = [SynthesisTask(graph="hal", latency=17, power_budget=p) for p in (10.0, 16.0)]
    started = time.monotonic()
    records = run_batch([race, *plain], jobs=2, cache=ResultCache(tmp_path))
    elapsed = time.monotonic() - started
    assert elapsed < BOUND_S, elapsed
    assert records[0].feasible and records[0].winner == "engine"
    assert all(record.feasible and not record.cached for record in records[1:])
    lines = collections.Counter(
        record.task.cache_key() for record in load_journal(tmp_path)
    )
    assert set(lines.values()) == {1}
    engine = next(
        slot.contender.task
        for slot in PortfolioRunner(race).slots
        if slot.contender.label == "engine"
    )
    assert {engine.cache_key(), *(task.cache_key() for task in plain)} <= set(lines)
    assert multiprocessing.active_children() == []
