"""The wire encoding: compact JSON, each job's task encoded once.

Every ``jobs.jsonl`` line and every job status must be byte-equal to the
plain ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``
that a job's cached task JSON is spliced into, whatever its labels hold.
A job's task is written once, by its ``submit`` line: ``finish`` lines
carry the record without it, and statuses serve it in both places.
"""

import json
import urllib.request

import pytest

from repro.api.task import SPLICE_TOKEN, SynthesisTask, tasks_from_json
from repro.ir.serialize import to_dict
from repro.serve import start_server
from repro.serve.http import parse_submission
from repro.serve.queue import JobQueue
from repro.suite.registry import get_benchmark

TOKEN = SPLICE_TOKEN


def plain(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def inline_task(**fields) -> SynthesisTask:
    spec = {"graph": to_dict(get_benchmark("hal").build()), "latency": 17, "power_budget": 12.0}
    spec.update(fields)
    return SynthesisTask.from_dict(spec)


def record_for(task: SynthesisTask, **fields) -> dict:
    record = {"task": task.to_dict(), "feasible": True, "area": 528.0, "latency": 17,
              "peak_power": 9.6, "cached": True, "elapsed": 0.25, "error": None}
    record.update(fields)
    return record


def submit_event(job) -> dict:
    return {"event": "submit", "id": job.id, "ts": job.submitted_at,
            "task": job.task.to_dict(), "key": job.key, "priority": job.priority}


def finish_event(job, record=None) -> dict:
    """The finish event of ``job``, whose record was ``record`` (task dropped)."""
    if record is not None:
        record = {name: value for name, value in record.items() if name != "task"}
    return {"event": "finish", "id": job.id, "ts": job.finished_at, "state": job.state,
            "record": record, "error": job.error, "error_type": job.error_type}


def status(job, record=None) -> dict:
    """What ``GET /jobs/<id>`` serves for ``job``, whose record was ``record``."""
    return {"id": job.id, "task": job.task.to_dict(), "key": job.key, "state": job.state,
            "submitted_at": job.submitted_at, "started_at": job.started_at,
            "finished_at": job.finished_at, "record": record, "error": job.error,
            "error_type": job.error_type, "requeues": job.requeues, "priority": job.priority}


def log_lines(queue: JobQueue) -> list:
    return queue.log_path.read_text().splitlines()


class TestLogLines:
    def test_every_event_is_the_plain_encoding(self, tmp_path):
        queue = JobQueue(tmp_path)
        warm_task, fresh_task, failed_task = (
            inline_task(label="warm"), inline_task(label="fresh"), inline_task(power_budget=2.0)
        )
        (warm,) = queue.submit_many([warm_task], records=[record_for(warm_task)])
        fresh = queue.submit(fresh_task)
        failed = queue.submit(failed_task, priority=3)
        expected = [plain(submit_event(warm)), plain(finish_event(warm, record_for(warm_task))),
                    plain(submit_event(fresh)), plain(submit_event(failed))]

        assert queue.take() is failed
        expected.append(plain({"event": "start", "id": failed.id, "ts": failed.started_at}))
        queue.finish(failed, error="boom", error_type="RuntimeError")
        expected.append(plain(finish_event(failed)))

        assert queue.take() is fresh
        expected.append(plain({"event": "start", "id": fresh.id, "ts": fresh.started_at}))
        queue.requeue(fresh)
        requeue_ts = json.loads(log_lines(queue)[-1])["ts"]
        expected.append(plain({"event": "requeue", "id": fresh.id, "ts": requeue_ts}))
        assert queue.take() is fresh
        expected.append(plain({"event": "start", "id": fresh.id, "ts": fresh.started_at}))
        # a child's record carries a copy of the task, not the same objects
        fresh_record = json.loads(json.dumps(record_for(fresh_task, cached=False)))
        queue.finish(fresh, record=fresh_record)
        expected.append(plain(finish_event(fresh, fresh_record)))

        assert log_lines(queue) == expected
        for job, record in ((warm, record_for(warm_task)), (fresh, fresh_record), (failed, None)):
            assert "task" not in (job.record or {})
            assert job.to_dict() == status(job, record)
            assert job.to_json() == plain(status(job, record))

    @pytest.mark.parametrize("where", ["label", "error", "quoted_error", "record_key"])
    def test_a_string_holding_the_placeholder_still_encodes_plainly(self, tmp_path, where):
        task = inline_task(label=TOKEN if where == "label" else "x")
        record = record_for(task)
        if where == "error":
            record["error"] = TOKEN
        elif where == "quoted_error":
            record["error"] = 'x"' + TOKEN
        elif where == "record_key":
            record[TOKEN] = 1
        queue = JobQueue(tmp_path)
        (job,) = queue.submit_many([task], records=[record])
        assert log_lines(queue) == [plain(submit_event(job)), plain(finish_event(job, record))]
        assert job.to_json() == plain(status(job, record))


def get_raw(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read()


class TestResponses:
    def test_statuses_and_results_are_compact_to_dict_payloads(self, tmp_path):
        specs = [
            {"graph": "hal", "latency": 17, "power_budget": 12.0},
            dict(inline_task(label="inline").to_dict()),
        ]
        with start_server(workers=1, state_dir=tmp_path) as handle:
            service = handle.service
            fresh = service.wait(service.submit_many([SynthesisTask.from_dict(s) for s in specs]))
            warm = service.submit_many([SynthesisTask.from_dict(s) for s in specs])
            assert [job.state for job in warm] == ["done", "done"]
            for job in fresh + warm:
                body = get_raw(f"{handle.url}/jobs/{job.id}")
                assert body == plain(job.to_dict()).encode()
                assert json.loads(body) == job.to_dict()
                assert json.loads(body)["record"]["task"] == json.loads(body)["task"]
                result = get_raw(f"{handle.url}/results/{job.key}")
                assert json.loads(result) == service.result(job.key)
                assert result == plain(service.result(job.key)).encode()
            listing = get_raw(f"{handle.url}/jobs")
            statuses = [job.to_dict() for job in service.queue.jobs()]
            assert listing == plain({"jobs": statuses}).encode()
            before = {job.id: job.to_json() for job in service.queue.jobs()}
        replayed = JobQueue(tmp_path)
        assert {job.id: job.to_json() for job in replayed.jobs()} == before


class TestOneParse:
    def test_batch_envelope_yields_the_tasks_of_tasks_from_json(self):
        batch = {
            "tasks": [{"graph": "hal", "latency": 17, "power_budget": 12.0, "label": "a"},
                      inline_task(label="b").to_dict()],
            "sweeps": [{"graph": "hal", "latency": 17, "power_budgets": [10, 12]}],
        }
        submission = parse_submission(json.dumps(dict(batch, priority=4)))
        assert submission.priority == 4
        assert [task.to_dict() for task in submission.tasks] == [
            task.to_dict() for task in tasks_from_json(json.dumps(batch))
        ]
