"""A 1.20.0 state directory replays to the statuses it served.

``data/log-1.20/jobs.jsonl`` was written by a 1.20.0 server, whose
``finish`` lines still carry ``record.task``.  It holds a job requeued
after its process died, named and inline jobs computed fresh and then
answered warm at admission, a failed job and an infeasible one.
``responses.json`` holds the bytes that server served for ``GET /jobs``
and each ``GET /jobs/<id>``; a replay must serve the same bytes.
"""

import json
import shutil
import urllib.request
from pathlib import Path

import pytest

from repro.serve import start_server
from repro.serve.queue import JobQueue

DATA = Path(__file__).parent / "data" / "log-1.20"


@pytest.fixture
def state_dir(tmp_path):
    shutil.copy(DATA / "jobs.jsonl", tmp_path / "jobs.jsonl")
    return tmp_path


@pytest.fixture(scope="module")
def served():
    return json.loads((DATA / "responses.json").read_text())


def get_raw(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read()


def test_the_fixture_covers_every_event_kind():
    events = [json.loads(line) for line in (DATA / "jobs.jsonl").read_text().splitlines()]
    assert {event["event"] for event in events} == {"submit", "start", "finish", "requeue"}
    finishes = [event for event in events if event["event"] == "finish"]
    assert {event["state"] for event in finishes} == {"done", "failed"}
    assert all("task" in event["record"] for event in finishes if event["record"])
    inline = [event for event in events
              if event["event"] == "submit" and isinstance(event["task"]["graph"], dict)]
    assert len(inline) == 2


def test_replay_drops_the_record_task_and_serves_the_same_bytes(state_dir, served):
    queue = JobQueue(state_dir)
    assert all(job.finished for job in queue.jobs())
    assert all("task" not in job.record for job in queue.jobs() if job.record)
    assert [job.id for job in queue.jobs()] == list(served["statuses"])
    for job in queue.jobs():
        assert job.to_json() == served["statuses"][job.id]
    assert (state_dir / "jobs.jsonl").read_bytes() == (DATA / "jobs.jsonl").read_bytes()


def test_a_server_booted_on_it_serves_the_same_bytes(state_dir, served):
    with start_server(workers=1, state_dir=state_dir) as handle:
        assert get_raw(f"{handle.url}/jobs").decode() == served["jobs"]
        for job_id, body in served["statuses"].items():
            assert get_raw(f"{handle.url}/jobs/{job_id}").decode() == body
