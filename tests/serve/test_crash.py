"""Crash-recovery tests: SIGKILL the workers, SIGKILL the service.

The serving stack promises that violent death is survivable at every
level:

* a synthesis *child* killed mid-job surfaces as a worker crash — the
  job is requeued, the slot respawned, and the batch still completes,
* a whole *service process* killed mid-batch leaves a queue log whose
  replay requeues everything in flight; a fresh service on the same
  state directory finishes the batch, and the shared cache journal
  still shows at most one synthesis per content address,
* a claim holder killed mid-hold frees its keys at once: the kernel
  drops its locks, so the next acquirer computes without waiting.

The synthesis tasks here are deliberately slow (seeded inline CDFGs of
160 operations, ~0.5-1.5s each) so the SIGKILL reliably lands in the
middle of real work, not between jobs.  The crash-loop job runs a
test-local scheduler that sleeps for a minute, so no attempt of it can
finish between two kills.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api.task import SynthesisTask
from repro.ir.analysis import critical_path_length
from repro.ir.serialize import to_dict
from repro.library import default_library
from repro.library.selection import MinPowerSelection, selection_delays
from repro.registries import SCHEDULERS
from repro.serve import Client, ClientError
from repro.serve.queue import DONE, RUNNING
from repro.serve.service import SynthesisService
from repro.store import claims, iter_journal_payloads
from repro.suite.generators import GeneratorConfig, random_cdfg

REPO_ROOT = Path(__file__).resolve().parents[2]


def slow_spec(seed: int, operations: int = 160, power: float = 60.0) -> dict:
    """A feasible inline-CDFG task slow enough to be killed mid-flight."""
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
    return {"graph": to_dict(cdfg), "latency": latency, "power_budget": power}


@pytest.fixture()
def sleepy_scheduler():
    """A scheduler that sleeps through any kill cadence, registered before
    the service forks its children (they inherit the registry)."""

    def sleepy(_ctx):
        time.sleep(60.0)

    SCHEDULERS.register("sleepy_for_crash_test", sleepy)
    yield "sleepy_for_crash_test"
    SCHEDULERS.unregister("sleepy_for_crash_test")


class TestWorkerChildCrash:
    def test_sigkilled_child_job_is_requeued_and_completes(self, tmp_path):
        with SynthesisService(tmp_path, workers=1) as service:
            (first_pid,) = service.worker_pids()
            jobs = service.submit_many(
                [SynthesisTask.from_dict(slow_spec(seed)) for seed in range(3)]
            )
            deadline = time.monotonic() + 30
            while not any(job.state == RUNNING for job in jobs):
                assert time.monotonic() < deadline, "no job ever started"
                time.sleep(0.005)
            time.sleep(0.1)  # let the child get properly into the synthesis
            os.kill(first_pid, signal.SIGKILL)

            service.wait(jobs, timeout=120)
            assert all(job.state == DONE for job in jobs)
            assert all(job.record["feasible"] for job in jobs)

            stats = service.stats()
            assert stats["worker_crashes"] >= 1
            assert sum(job.requeues for job in jobs) >= 1
            pids = service.worker_pids()
            assert pids and first_pid not in pids, "dead slot must respawn"

        journaled = [k for k, _ in iter_journal_payloads(service.cache.root)]
        assert sorted(journaled) == sorted(set(journaled))
        assert set(journaled) == {job.key for job in jobs}

    def test_crash_loop_fails_job_after_max_requeues(self, tmp_path, sleepy_scheduler):
        with SynthesisService(tmp_path, workers=1, max_requeues=1) as service:
            (job,) = service.submit_many(
                [
                    SynthesisTask(
                        graph="hal", latency=17, power_budget=12.0,
                        scheduler=sleepy_scheduler,
                    )
                ]
            )
            crashes = 0
            deadline = time.monotonic() + 120
            while not job.finished and time.monotonic() < deadline:
                for pid in service.worker_pids():
                    try:
                        os.kill(pid, signal.SIGKILL)
                        crashes += 1
                    except ProcessLookupError:
                        pass
                time.sleep(0.3)
            assert job.finished
            assert job.state == "failed" and job.error_type == "WorkerCrash"
            assert crashes >= 2  # original attempt + the one allowed requeue
            # the poisoned job must not have produced an uncertified record
            assert service.result(job.key) is None


class _ServeProcess:
    """A real ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, state_dir, cache_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--workers",
                "2",
                "--state-dir",
                str(state_dir),
                "--cache-dir",
                str(cache_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )
        self.url = self._read_url()

    def _read_url(self) -> str:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on" in line:
                return line.rsplit(" ", 1)[-1].strip()
        raise AssertionError("repro serve never announced its address")

    def sigkill(self):
        self.proc.kill()
        self.proc.wait(timeout=30)

    def terminate(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()
                self.proc.wait(timeout=15)


@pytest.mark.slow
class TestServiceProcessCrash:
    def test_sigkilled_service_replays_queue_and_completes_batch(self, tmp_path):
        state_dir = tmp_path / "state"
        cache_dir = tmp_path / "cache"
        batch = [slow_spec(seed) for seed in range(6)]

        first = _ServeProcess(state_dir, cache_dir)
        survivor = None
        try:
            client = Client(first.url, retries=0)
            accepted = client.submit(batch)
            assert len(accepted) == len(batch)

            # kill the whole service strictly mid-batch: some progress
            # made, some jobs still pending or in flight
            deadline = time.monotonic() + 120
            while True:
                assert time.monotonic() < deadline, "batch never progressed"
                states = [client.job(entry["id"])["state"] for entry in accepted]
                if any(s in (RUNNING, DONE) for s in states) and not all(
                    s == DONE for s in states
                ):
                    break
                time.sleep(0.01)
            first.sigkill()

            survivor = _ServeProcess(state_dir, cache_dir)
            client = Client(survivor.url, retries=0)
            final = client.wait(accepted, timeout=180)
            assert all(state["state"] == "done" for state in final)
            assert all(state["record"]["feasible"] for state in final)
            assert {state["id"] for state in final} == {
                entry["id"] for entry in accepted
            }

            # replay requeued the in-flight work rather than losing it
            stats = client.stats()
            assert stats["queue"]["jobs"].get("failed", 0) == 0

            # at most one synthesis per content address even across the
            # murdered first service and its successor
            journaled = [k for k, _ in iter_journal_payloads(cache_dir)]
            assert sorted(journaled) == sorted(set(journaled))
            assert set(journaled) == {entry["key"] for entry in accepted}

            # every served result is a certified record, none withheld
            for entry in accepted:
                assert client.result(entry["key"]).feasible
        finally:
            first.terminate()
            if survivor is not None:
                survivor.terminate()


#: A claim holder run as its own process: takes every key on argv, then sleeps.
HOLD_CLAIMS = """
import sys, time
from repro.store import claims
held = [claims.try_acquire(sys.argv[1], key) for key in sys.argv[2:]]
assert all(held)
print("held", flush=True)
time.sleep(600)
"""


class TestDeadClaimHolder:
    def test_sigkilled_holder_frees_its_keys_at_once(self, tmp_path):
        # the kernel drops a SIGKILLed holder's locks: run_task and a fresh
        # service compute its keys at once, with nothing to break or sweep
        from repro.api.batch import run_task
        from repro.explore import ResultCache

        cache_dir = tmp_path / "cache"
        tasks = [
            SynthesisTask(graph="hal", latency=17, power_budget=power)
            for power in (10.0, 12.0)
        ]
        keys = [task.cache_key() for task in tasks]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        holder = subprocess.Popen(
            [sys.executable, "-c", HOLD_CLAIMS, str(cache_dir), *keys],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            assert holder.stdout.readline().strip() == "held"
            assert all(claims.try_acquire(cache_dir, key) is None for key in keys)
        finally:
            holder.kill()
            holder.wait(timeout=30)
            holder.stdout.close()

        started = time.monotonic()
        record = run_task(tasks[0], keep_result=False, cache=ResultCache(cache_dir))
        assert record.feasible and not record.cached
        with SynthesisService(
            tmp_path / "state", cache=ResultCache(cache_dir), workers=1
        ) as service:
            (job,) = service.submit_many([tasks[1]])
            service.wait([job], timeout=60)
            assert job.state == DONE and job.record["feasible"]
            assert not job.record["cached"]
        # far below CLAIM_TIMEOUT: nobody waited on the dead holder
        assert time.monotonic() - started < 60
