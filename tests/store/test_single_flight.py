"""One single-flight rule: every cached synthesis runs under the store claim.

``run_task`` takes the claim file (:mod:`repro.store.claims`) around
every synthesis against a readable and writable cache, so any two
processes sharing a cache directory — batch runs, serve children, race
contenders — file each content address once.  These tests drive real
processes against one directory and count the journal, which gets one
line per computed record.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.api.batch import run_batch, run_task
from repro.api.task import SynthesisTask
from repro.exec import run_claimed_task
from repro.explore.cache import ResultCache, load_journal
from repro.store import claims, iter_journal_payloads

CTX = multiprocessing.get_context("fork")

#: Seconds any one process in these tests may take before it counts as hung.
WAIT = 60.0


def hal_task(power: float = 10.0) -> SynthesisTask:
    return SynthesisTask(graph="hal", latency=17, power_budget=power)


def _hold_then_file(root, spec, claimed, go) -> None:
    """Hold the claim on ``spec``'s address until ``go``, then file its record."""
    task = SynthesisTask.from_dict(spec)
    claim = claims.try_acquire(root, task.cache_key())
    assert claim is not None
    claimed.set()
    go.wait(WAIT)
    ResultCache(root).put(task, run_task(task, keep_result=False))
    claim.release()


def _waiter_behind_foreign_claim(tmp_path, run):
    """Run ``run(task, cache)`` while a live helper process holds the claim.

    The helper files the record only after the waiter's third lookup, so
    the waiter has found the claim held and polled the store at least
    twice.  Returns ``(outcome, cache)``.
    """
    task = hal_task()
    cache = ResultCache(tmp_path)
    claimed, go = CTX.Event(), CTX.Event()
    helper = CTX.Process(
        target=_hold_then_file, args=(str(tmp_path), task.to_dict(), claimed, go)
    )
    helper.start()
    try:
        assert claimed.wait(WAIT)
        peeks = []
        peek = cache.peek

        def counting_peek(looked_up):
            peeks.append(looked_up)
            if len(peeks) >= 3:
                go.set()
            return peek(looked_up)

        cache.peek = counting_peek
        outcome = run(task, cache)
    finally:
        go.set()
        helper.join(WAIT)
    assert helper.exitcode == 0
    return outcome, cache


class TestWaitOnForeignClaim:
    def test_run_task_returns_the_holders_record(self, tmp_path):
        record, cache = _waiter_behind_foreign_claim(
            tmp_path, lambda task, cache: run_task(task, keep_result=False, cache=cache)
        )
        assert record.cached is True and record.feasible
        assert len(load_journal(tmp_path)) == 1
        claim = claims.try_acquire(tmp_path, hal_task().cache_key())
        assert claim is not None  # the holder released it
        claim.release()

    def test_waiting_counts_one_lookup(self, tmp_path):
        # a race contender behind another process's claim: its polls use
        # peek, so the caller's stats see the task's one miss only
        outcome, cache = _waiter_behind_foreign_claim(tmp_path, run_claimed_task)
        assert outcome["cached"] is True
        assert (cache.stats.hits, cache.stats.misses, cache.stats.writes) == (0, 1, 0)
        assert len(load_journal(tmp_path)) == 1


def _run_batch_after(barrier, root, specs, jobs) -> None:
    tasks = [SynthesisTask.from_dict(spec) for spec in specs]
    barrier.wait(WAIT)
    run_batch(tasks, jobs=jobs, keep_results=False, cache=ResultCache(root))


class TestConcurrentBatches:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_two_processes_file_each_key_once(self, tmp_path, jobs):
        tasks = [
            SynthesisTask(graph="elliptic", latency=22, power_budget=power, scheduler="ilp")
            for power in (16.0, 17.0, 20.0, 30.0)
        ]
        specs = [task.to_dict() for task in tasks]
        barrier = CTX.Barrier(2)
        runs = [
            CTX.Process(target=_run_batch_after, args=(barrier, str(tmp_path), specs, jobs))
            for _ in range(2)
        ]
        for run in runs:
            run.start()
        for run in runs:
            run.join(WAIT)
        assert [run.exitcode for run in runs] == [0, 0]
        journaled = sorted(key for key, _ in iter_journal_payloads(tmp_path))
        assert journaled == sorted(task.cache_key() for task in tasks)
