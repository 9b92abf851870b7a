"""Unit tests for the SynthesisService worker pool."""

import json

import pytest

from repro.api.task import SynthesisTask
from repro.exec import WorkerPool
from repro.explore import ResultCache
from repro.serve.queue import DONE, FAILED, PENDING, QueueFullError
from repro.serve.service import ServiceError, SynthesisService
from repro.verify.certificate import CertificateError, CertificateReport, Violation


def task(power=12.0, graph="hal", latency=17):
    return SynthesisTask(graph=graph, latency=latency, power_budget=power)


class TestExecution:
    def test_submit_and_wait_produces_records(self, tmp_path):
        with SynthesisService(tmp_path, workers=2) as service:
            jobs = service.submit_many([task(10.0), task(12.0)])
            service.wait(jobs, timeout=60)
        assert all(job.state == DONE for job in jobs)
        assert jobs[0].record["feasible"] and jobs[0].record["area"] == 754.0
        assert jobs[1].record["area"] == 528.0

    def test_infeasible_task_is_done_with_infeasible_record(self, tmp_path):
        with SynthesisService(tmp_path, workers=1) as service:
            (job,) = service.submit_many([task(2.0)])
            service.wait([job], timeout=60)
        assert job.state == DONE
        assert job.record["feasible"] is False
        assert job.record["error"]

    def test_identical_jobs_synthesize_once(self, tmp_path):
        with SynthesisService(tmp_path, workers=4) as service:
            jobs = service.submit_many([task()] * 5)
            service.wait(jobs, timeout=60)
        cached = [job.record["cached"] for job in jobs]
        assert cached.count(False) == 1
        assert cached.count(True) == 4
        assert service.cache.stats.writes == 1

    def test_certificate_failure_marks_job_failed_and_uncached(self, tmp_path, monkeypatch):
        report = CertificateReport(
            graph="hal",
            violations=[Violation("latency", "t", "made up for the test")],
        )

        def rejecting_run_task(*_args, **_kwargs):
            raise CertificateError(report)

        import repro.exec as exec_module

        # patched before the service starts: worker children are forked
        # (exec._context), so they inherit the rejecting run_task
        monkeypatch.setattr(exec_module, "run_task", rejecting_run_task)
        with SynthesisService(tmp_path, workers=1) as service:
            (job,) = service.submit_many([task()])
            service.wait([job], timeout=10)
        assert job.state == FAILED
        assert job.error_type == "CertificateError"
        assert service.cache.record_for_key(job.key) is None
        assert service.summary().certificate_errors == 1

    def test_shared_cache_serves_across_service_restarts(self, tmp_path):
        with SynthesisService(tmp_path, workers=1) as service:
            jobs = service.submit_many([task()])
            service.wait(jobs, timeout=60)
        with SynthesisService(tmp_path, workers=1) as service:
            (job,) = service.submit_many([task()])
            service.wait([job], timeout=60)
            assert job.record["cached"] is True

    def test_children_write_the_columnar_layout(self, tmp_path):
        with SynthesisService(tmp_path, workers=1) as service:
            jobs = service.submit_many([task()])
            service.wait(jobs, timeout=60)
            assert service.stats()["cache"]["backend"] == "columnar"
        cache_dir = tmp_path / "cache"
        assert json.loads((cache_dir / "store.json").read_text())["backend"] == "columnar"
        assert not (cache_dir / "objects").exists()
        assert ResultCache(cache_dir).get(task()) is not None


class TestLifecycle:
    def test_requires_at_least_one_worker(self):
        with pytest.raises(ServiceError):
            SynthesisService(workers=0)

    def test_submit_after_shutdown_raises(self, tmp_path):
        service = SynthesisService(tmp_path, workers=1).start()
        service.shutdown()
        with pytest.raises(ServiceError):
            service.submit(task())

    def test_drain_completes_accepted_work(self, tmp_path):
        service = SynthesisService(tmp_path, workers=2).start()
        jobs = service.submit_many([task(p) for p in (9.0, 10.0, 11.0, 12.0)])
        service.shutdown(drain=True)
        assert all(job.state == DONE for job in jobs)
        assert not service.running

    def test_pending_jobs_resume_on_next_boot(self, tmp_path):
        # Never started: everything stays pending in the persistent queue.
        cold = SynthesisService(tmp_path, workers=1)
        cold.submit_many([task(10.0), task(12.0)])
        cold.queue.close()

        service = SynthesisService(tmp_path, workers=1)
        assert service.queue.depth == 2  # replayed, workers not started yet
        with service:
            service.wait(service.queue.jobs(), timeout=60)
        assert all(job.state == DONE for job in service.queue.jobs())


class TestIntrospection:
    def test_stats_shape_and_batch_summary_agreement(self, tmp_path):
        with SynthesisService(tmp_path, workers=2) as service:
            jobs = service.submit_many([task(10.0), task(10.0), task(2.0)])
            service.wait(jobs, timeout=60)
            stats = service.stats()
        assert stats["queue"]["jobs"]["done"] == 3
        assert stats["summary"]["total"] == 3
        assert stats["summary"]["feasible"] == 2
        assert stats["summary"]["cache_hits"] == 1
        assert stats["summary"]["computed"] == 2
        assert stats["cache"]["writes"] == 2
        engine = stats["per_strategy"]["engine"]
        assert engine["jobs"] == 3
        assert engine["cache_hits"] == 1
        assert engine["computed"] == 2
        assert engine["mean_computed_seconds"] > 0

    def test_healthz_reports_running_then_stopped(self, tmp_path):
        service = SynthesisService(tmp_path, workers=1).start()
        assert service.healthz()["status"] == "ok"
        service.shutdown()
        assert service.healthz()["status"] == "stopped"

    def test_result_lookup_by_content_address(self, tmp_path):
        with SynthesisService(tmp_path, workers=1) as service:
            (job,) = service.submit_many([task()])
            service.wait([job], timeout=60)
            payload = service.result(job.key)
        assert payload["key"] == job.key
        assert payload["record"]["feasible"] is True
        assert service.result("0" * 64) is None

    def test_unverifiable_foreign_cache_records_are_withheld(self, tmp_path):
        # Some other producer writes a feasible verify=False record into
        # the shared cache directory: its certification is unprovable, so
        # /results must not serve it as certified.
        from repro.api.batch import run_task

        foreign = SynthesisTask(
            graph="hal", latency=17, power_budget=12.0, verify=False
        )
        run_task(foreign, keep_result=False, cache=ResultCache(tmp_path / "cache"))

        service = SynthesisService(tmp_path, workers=1)
        assert service.cache.record_for_key(foreign.cache_key()) is not None
        assert service.result(foreign.cache_key()) is None

        # The same verify=False spec computed by the service itself *is*
        # served: workers run the run_task(verify=True) gate regardless.
        own = SynthesisTask(graph="hal", latency=17, power_budget=10.0, verify=False)
        with service:
            (job,) = service.submit_many([own])
            service.wait([job], timeout=60)
            assert service.result(job.key) is not None

            # Submitting the *foreign* spec yields a cache hit, which is
            # returned as-is without re-certification — it must not
            # launder the uncertified record into servability.
            (hit,) = service.submit_many([foreign])
            service.wait([hit], timeout=60)
            assert hit.record["cached"] is True
            assert service.result(foreign.cache_key()) is None

    def test_wait_timeout_raises(self, tmp_path):
        service = SynthesisService(tmp_path, workers=1)  # never started
        job = service.submit(task())
        with pytest.raises(ServiceError):
            service.wait([job], timeout=0.05)


def warm(tmp_path, *powers):
    """Compute ``task(power)`` into the service's cache directory."""
    from repro.api.batch import run_task

    cache = ResultCache(tmp_path / "cache")
    for power in powers:
        run_task(task(power), keep_result=False, cache=cache)


@pytest.fixture()
def childless(monkeypatch):
    """Children cannot answer: any job handed to one fails the test."""

    def refuse(_self, payload):
        raise AssertionError(f"{payload['task']!r} reached a worker child")

    monkeypatch.setattr(WorkerPool, "run", refuse)


class TestParentAnswersHits:
    def test_one_lookup_per_job_for_warm_cold_and_duplicate_tasks(
        self, tmp_path, monkeypatch
    ):
        warm(tmp_path, 12.0)
        shipped = []
        run = WorkerPool.run

        def recording_run(self, payload):
            shipped.append(SynthesisTask.from_dict(payload["task"]).cache_key())
            return run(self, payload)

        monkeypatch.setattr(WorkerPool, "run", recording_run)
        with SynthesisService(tmp_path, workers=2) as service:
            # warm, cold, a duplicate of the in-flight cold one, warm again
            jobs = service.submit_many([task(12.0), task(10.0), task(10.0), task(12.0)])
            assert jobs[0].state == jobs[3].state == DONE
            service.wait(jobs, timeout=60)
            stats = service.stats()
        assert [job.record["cached"] for job in jobs] == [True, False, True, True]
        assert shipped == [task(10.0).cache_key()], "children see only misses"
        assert stats["cache"]["hits"] == 3
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["writes"] == 1
        assert stats["summary"]["total"] == 4
        assert stats["summary"]["cache_hits"] == service.summary().cache_hits == 3
        assert stats["summary"]["computed"] == 1
        engine = stats["per_strategy"]["engine"]
        assert (engine["jobs"], engine["cache_hits"], engine["computed"]) == (4, 3, 1)


class TestAdmissionRecord:
    def test_answered_job_is_one_write_and_replays_done(self, tmp_path, monkeypatch):
        import repro.serve.queue as queue_module

        warm(tmp_path, 12.0)
        service = SynthesisService(tmp_path, workers=1)
        writes = []
        write = queue_module.os.write

        def recording_write(fd, data):
            writes.append(data)
            return write(fd, data)

        monkeypatch.setattr(queue_module.os, "write", recording_write)
        (job,) = service.submit_many([task(12.0)])
        monkeypatch.undo()
        assert len(writes) == 1
        events = [json.loads(line)["event"] for line in writes[0].decode().splitlines()]
        assert events == ["submit", "finish"]

        replayed = SynthesisService(tmp_path, workers=1).job(job.id)
        assert replayed.state == DONE
        assert replayed.record == job.record and replayed.record["cached"] is True
        assert replayed.started_at == replayed.submitted_at == job.submitted_at

    def test_log_torn_after_the_submit_line_is_answered_on_next_boot(
        self, tmp_path, childless
    ):
        warm(tmp_path, 12.0)
        (job,) = SynthesisService(tmp_path, workers=1).submit_many([task(12.0)])
        log = tmp_path / "jobs.jsonl"
        submit_line, finish_line = log.read_text().splitlines(keepends=True)
        log.write_text(submit_line + finish_line[: len(finish_line) // 2])

        service = SynthesisService(tmp_path, workers=1)
        assert service.job(job.id).state == PENDING
        assert service.queue.depth == 1
        with service:
            (replayed,) = service.wait([service.job(job.id)], timeout=30)
        assert replayed.state == DONE
        assert replayed.record["cached"] is True
        assert service.stats()["cache"]["hits"] == 1


class TestWarmJobsNeverReachAChild:
    def test_warm_submissions_come_back_done(self, tmp_path, childless):
        warm(tmp_path, 10.0, 12.0)
        with SynthesisService(tmp_path, workers=1) as service:
            jobs = service.submit_many([task(10.0), task(12.0)])
            assert all(job.state == DONE for job in jobs)
            assert all(job.started_at == job.submitted_at for job in jobs)
            assert all(job.record["cached"] for job in jobs)
            assert [job.record["area"] for job in jobs] == [754.0, 528.0]
            assert service.queue.depth == 0

    def test_mixed_batch_counts_only_its_misses_against_the_depth(
        self, tmp_path, childless
    ):
        warm(tmp_path, 10.0, 12.0, 16.0)
        service = SynthesisService(tmp_path, workers=1, max_queue_depth=2)
        jobs = service.submit_many(
            [task(p) for p in (10.0, 12.0, 16.0, 11.0, 13.0)]
        )
        assert [job.state for job in jobs] == [DONE] * 3 + [PENDING] * 2
        assert service.queue.depth == 2
        # the queue is full, but a batch of hits takes no slot
        (hit,) = service.submit_many([task(12.0)])
        assert hit.state == DONE
        with pytest.raises(QueueFullError):
            service.submit_many([task(12.0), task(14.0)])

    def test_a_rejected_batch_admits_and_counts_nothing(self, tmp_path, childless):
        warm(tmp_path, 12.0)
        service = SynthesisService(tmp_path, workers=1, max_queue_depth=1)
        with pytest.raises(QueueFullError):
            service.submit_many([task(12.0), task(10.0), task(11.0)])
        assert len(service.queue) == 0
        log = tmp_path / "jobs.jsonl"
        assert not log.exists() or log.read_text() == ""
        stats = service.stats()
        assert stats["cache"]["hits"] == stats["cache"]["misses"] == 0
        assert stats["summary"]["total"] == 0


def test_concurrent_submitters_count_one_lookup_per_job(tmp_path):
    # more dispatch threads and submitting threads than cores, with a
    # short switch interval: a lost counter update or a job answered
    # twice breaks the books below
    import sys
    import threading

    warm(tmp_path, 10.0, 12.0)
    powers = (10.0, 12.0, 11.0, 13.0)
    submitted, errors = [], []

    def submitter(service):
        try:
            for _ in range(3):
                submitted.extend(service.submit_many([task(p) for p in powers]))
        except Exception as exc:  # noqa: BLE001 - surfaced by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with SynthesisService(tmp_path, workers=4) as service:
            threads = [
                threading.Thread(target=submitter, args=(service,)) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive(), "submitter wedged"
            service.wait(submitted, timeout=120)
            stats = service.stats()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(submitted) == 4 * 3 * len(powers)
    assert all(job.state == DONE for job in submitted)
    assert stats["cache"]["hits"] + stats["cache"]["misses"] == len(submitted)
    assert stats["cache"]["writes"] == stats["summary"]["computed"] == 2
    assert stats["summary"]["cache_hits"] == len(submitted) - 2
