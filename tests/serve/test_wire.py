"""The wire encoding: compact JSON, each job's task encoded once.

Every ``jobs.jsonl`` line and every job status must be byte-equal to the
plain ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``
that a job's cached task JSON is spliced into, whatever its labels hold.
"""

import json
import urllib.request

import pytest

from repro.api.task import SynthesisTask, tasks_from_json
from repro.ir.serialize import to_dict
from repro.serve import queue as queue_module
from repro.serve import start_server
from repro.serve.http import parse_submission
from repro.serve.queue import JobQueue
from repro.suite.registry import get_benchmark

TOKEN = queue_module._TASK_TOKEN


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


def finish_event(job) -> dict:
    return {"event": "finish", "id": job.id, "ts": job.finished_at, "state": job.state,
            "record": job.record, "error": job.error, "error_type": job.error_type}


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
        expected = [plain(submit_event(warm)), plain(finish_event(warm)),
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
        queue.finish(fresh, record=json.loads(json.dumps(record_for(fresh_task, cached=False))))
        expected.append(plain(finish_event(fresh)))

        assert log_lines(queue) == expected
        assert warm._record_task[1] and fresh._record_task[1]  # both spliced
        for job in (warm, fresh, failed):
            assert job.to_json() == plain(job.to_dict())

    @pytest.mark.parametrize(
        "where",
        ["label", "record_label", "error", "quoted_error", "record_key"],
    )
    def test_a_string_holding_the_placeholder_still_encodes_plainly(self, tmp_path, where):
        task = inline_task(label=TOKEN if where == "label" else "x")
        record = record_for(task)
        if where == "record_label":
            record["task"] = dict(record["task"], label=TOKEN)
        elif where == "error":
            record["error"] = TOKEN
        elif where == "quoted_error":
            record["error"] = 'x"' + TOKEN
        elif where == "record_key":
            record[TOKEN] = 1
        queue = JobQueue(tmp_path)
        (job,) = queue.submit_many([task], records=[record])
        assert log_lines(queue) == [plain(submit_event(job)), plain(finish_event(job))]
        assert job.to_json() == plain(job.to_dict())

    def test_a_record_of_an_equal_but_differently_typed_task_is_not_spliced(self, tmp_path):
        task = inline_task(options={"ilp_node_limit": 5})
        record = record_for(task)
        record["task"] = dict(record["task"], options={"ilp_node_limit": 5.0})
        queue = JobQueue(tmp_path)
        (job,) = queue.submit_many([task], records=[record])
        assert record["task"] == task.to_dict()
        assert log_lines(queue)[1] == plain(finish_event(job))
        assert job.to_json() == plain(job.to_dict())


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
