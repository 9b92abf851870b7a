"""Crash-recovery tests: SIGKILL the workers, SIGKILL the service.

The serving stack promises that violent death is survivable at every
level:

* a synthesis *child* killed mid-job surfaces as a worker crash — the
  job is requeued, the slot respawned, and the batch still completes,
* a whole *service process* killed mid-batch leaves a queue log whose
  replay requeues everything in flight; a fresh service on the same
  state directory finishes the batch, and the shared cache journal
  still shows at most one synthesis per content address,
* claim files left by dead processes are detected stale (dead pid) and
  broken — at boot by the sweep, and inline by the next acquirer.

The synthesis tasks here are deliberately slow (seeded inline CDFGs of
160-240 operations, ~0.5-1.5s each) so the SIGKILL reliably lands in
the middle of real work, not between jobs.
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

    def test_crash_loop_fails_job_after_max_requeues(self, tmp_path):
        with SynthesisService(tmp_path, workers=1, max_requeues=1) as service:
            (job,) = service.submit_many(
                [SynthesisTask.from_dict(slow_spec(99, operations=240, power=80.0))]
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


class TestStaleClaimHygiene:
    def test_boot_sweep_breaks_dead_pid_claims(self, tmp_path):
        task = SynthesisTask(graph="hal", latency=17, power_budget=12.0)
        cache_dir = tmp_path / "cache"
        path = claims.claim_path(cache_dir, task.cache_key())
        path.parent.mkdir(parents=True, exist_ok=True)
        dead = claims.ClaimInfo(
            key=task.cache_key(),
            pid=2**22 + 1,  # beyond any live pid in the test container
            acquired_at=time.time(),
            lease=3600.0,
            owner="crashed-service",
        )
        path.write_bytes(dead.to_json().encode())

        from repro.explore import ResultCache

        with SynthesisService(
            tmp_path / "state", cache=ResultCache(cache_dir), workers=1
        ) as service:
            assert service.stats()["stale_claims_broken"] >= 1
            (job,) = service.submit_many([task])
            service.wait([job], timeout=60)
            assert job.state == DONE and job.record["feasible"]

    def test_inline_break_when_claim_goes_stale_mid_wait(self, tmp_path):
        # a claim planted *after* boot, holder already dead: the worker's
        # acquire loop must break it inline rather than waiting forever
        from repro.explore import ResultCache
        from repro.exec import run_claimed_task

        task = SynthesisTask(graph="hal", latency=17, power_budget=10.0)
        cache = ResultCache(tmp_path / "cache")
        path = claims.claim_path(cache.root, task.cache_key())
        path.parent.mkdir(parents=True, exist_ok=True)
        dead = claims.ClaimInfo(
            key=task.cache_key(),
            pid=2**22 + 2,
            acquired_at=time.time(),
            lease=3600.0,
        )
        path.write_bytes(dead.to_json().encode())

        outcome = run_claimed_task(task, cache, claim_timeout=30.0)
        assert outcome["feasible"] is True
        assert claims.holder(cache.root, task.cache_key()) is None
