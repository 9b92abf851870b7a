"""Unit tests for the persistent job queue."""

import json

import pytest

from repro.api.task import SynthesisTask
from repro.serve.queue import DONE, FAILED, PENDING, RUNNING, JobQueue, QueueError


def task(power=12.0):
    return SynthesisTask(graph="hal", latency=17, power_budget=power)


class TestLifecycle:
    def test_submit_take_finish(self):
        queue = JobQueue()
        job = queue.submit(task())
        assert job.state == PENDING
        assert job.key == task().cache_key()

        taken = queue.take(timeout=0.1)
        assert taken is job and job.state == RUNNING
        queue.finish(job, record={"feasible": True})
        assert job.state == DONE and job.finished
        assert queue.counts() == {"pending": 0, "running": 0, "done": 1, "failed": 0}

    def test_fifo_order(self):
        queue = JobQueue()
        first = queue.submit(task(10.0))
        second = queue.submit(task(12.0))
        assert queue.take(timeout=0.1) is first
        assert queue.take(timeout=0.1) is second
        assert queue.depth == 0

    def test_finish_with_error_marks_failed(self):
        queue = JobQueue()
        job = queue.submit(task())
        queue.take(timeout=0.1)
        queue.finish(job, error="boom", error_type="CertificateError")
        assert job.state == FAILED
        assert job.error_type == "CertificateError"

    def test_take_times_out_empty(self):
        assert JobQueue().take(timeout=0.01) is None

    def test_closed_queue_refuses_submissions_and_unblocks_take(self):
        queue = JobQueue()
        queue.close()
        with pytest.raises(QueueError):
            queue.submit(task())
        assert queue.take(timeout=5.0) is None  # returns immediately, no wait

    def test_illegal_transitions_raise(self):
        queue = JobQueue()
        job = queue.submit(task())
        with pytest.raises(QueueError):
            queue.finish(job)  # still pending
        with pytest.raises(QueueError):
            queue.requeue(job)

    def test_requeue_puts_job_back_at_the_head(self):
        queue = JobQueue()
        first = queue.submit(task(10.0))
        queue.submit(task(12.0))
        queue.take(timeout=0.1)
        queue.requeue(first)
        assert first.state == PENDING and first.requeues == 1
        assert queue.take(timeout=0.1) is first  # ahead of the other pending job


class TestPersistence:
    def test_replay_restores_jobs_and_states(self, tmp_path):
        queue = JobQueue(tmp_path)
        done = queue.submit(task(10.0))
        queue.submit(task(12.0))  # stays pending
        queue.take(timeout=0.1)
        queue.finish(done, record={"feasible": True, "area": 7.0})

        reopened = JobQueue(tmp_path)
        assert len(reopened) == 2
        restored = reopened.get(done.id)
        assert restored.state == DONE
        assert restored.record == {"feasible": True, "area": 7.0}
        assert reopened.depth == 1  # the pending job re-entered the queue
        assert reopened.take(timeout=0.1).task.power_budget == 12.0

    def test_replay_requeues_jobs_left_running_by_a_crash(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(task())
        queue.take(timeout=0.1)
        assert job.state == RUNNING  # "process dies here"

        reopened = JobQueue(tmp_path)
        revived = reopened.get(job.id)
        assert revived.state == PENDING
        assert revived.requeues == 1
        assert reopened.depth == 1

    def test_torn_log_tail_is_tolerated(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(task())
        with open(queue.log_path, "a") as handle:
            handle.write('{"event": "submit", "id": "job-trunc')  # killed mid-write

        reopened = JobQueue(tmp_path)
        assert len(reopened) == 1
        assert reopened.depth == 1

    def test_log_lines_are_one_json_object_each(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(task())
        queue.take(timeout=0.1)
        queue.finish(job, record={})
        lines = queue.log_path.read_text().strip().splitlines()
        assert [json.loads(line)["event"] for line in lines] == [
            "submit",
            "start",
            "finish",
        ]

    def test_in_memory_queue_has_no_log(self):
        assert JobQueue().log_path is None
