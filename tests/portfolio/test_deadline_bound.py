"""``deadline_s`` bounds the response on every execution path.

A ``sleepy`` contender (30 s asleep, then ``pasap``) races ``engine``
under a 1 s deadline: cacheless through ``run_task``, through
``SynthesisService`` and over HTTP.  Every path must answer well before
the sleeper wakes, with engine's certified result, and leave no child
process behind.  The scheduler is registered in this process before any
worker forks, so every child and contender inherits it.
"""

import functools
import multiprocessing
import time

import pytest

from repro.api.batch import run_task
from repro.portfolio import portfolio_task
from repro.registries import SCHEDULERS
from repro.serve import Client, SynthesisService, start_server

DEADLINE_S = 1.0
#: Deadline plus fork, IPC and polling slack; the sleeper takes 30 s.
BOUND_S = 3.0


@pytest.fixture(scope="module", autouse=True)
def sleepy():
    pasap = SCHEDULERS.get("pasap")

    @functools.wraps(pasap)
    def sleepy_strategy(ctx):
        time.sleep(30.0)
        pasap(ctx)

    SCHEDULERS.register("sleepy", sleepy_strategy)
    yield
    SCHEDULERS.unregister("sleepy")


def race_task(deadline_s=None):
    return portfolio_task(
        "hal",
        latency=17,
        power_budget=12.0,
        strategies=["sleepy", "engine"],
        deadline_s=deadline_s,
    )


def test_cacheless_run_task_answers_by_the_deadline():
    started = time.monotonic()
    record = run_task(race_task(DEADLINE_S))
    elapsed = time.monotonic() - started
    assert elapsed < BOUND_S, elapsed
    assert record.feasible and record.winner == "engine"
    assert multiprocessing.active_children() == []


def test_service_answers_by_the_deadline(tmp_path):
    with SynthesisService(tmp_path, workers=1) as service:
        started = time.monotonic()
        (job,) = service.submit_many([race_task()], deadline_s=DEADLINE_S)
        service.wait([job], timeout=30)
        elapsed = time.monotonic() - started
    assert elapsed < BOUND_S, elapsed
    assert job.record["feasible"] and job.record["winner"] == "engine"
    assert multiprocessing.active_children() == []


def test_http_answers_by_the_deadline(tmp_path):
    with start_server(state_dir=tmp_path, workers=1) as handle:
        started = time.monotonic()
        (record,) = Client(handle.url).submit_and_wait(
            [race_task()], deadline_s=DEADLINE_S, timeout=30
        )
        elapsed = time.monotonic() - started
    assert elapsed < BOUND_S, elapsed
    assert record.feasible and record.winner == "engine"
    assert multiprocessing.active_children() == []
