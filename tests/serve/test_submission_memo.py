"""The front's submission memo: a repeated ``POST /tasks`` body costs one hash.

An identical body is parsed, stamped and keyed once, and its jobs share
the task objects; the memo re-parses a body whose benchmark or library
names resolve to other registry entries than the ones it was keyed
against, never keeps a body that failed, and stays within its bounds.
"""

import json
import urllib.request

import pytest

from repro.api.task import SynthesisTask
from repro.ir.serialize import to_dict
from repro.library.library import FULibrary
from repro.portfolio.config import with_deadline
from repro.registries import LIBRARIES
from repro.serve import http as http_module
from repro.serve import start_server
from repro.serve.http import SubmissionMemo, SynthesisServer
from repro.serve.service import SynthesisService
from repro.suite.registry import BENCHMARKS, get_benchmark, register_benchmark

NAMED = {"graph": "hal", "latency": 17, "power_budget": 12.0}


def body_of(spec) -> bytes:
    return json.dumps(spec).encode()


def inline_spec(**fields) -> dict:
    spec = {"graph": to_dict(get_benchmark("hal").build()), "latency": 17, "power_budget": 13.5}
    spec.update(fields)
    return spec


def plain(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.fixture
def parses(monkeypatch):
    """Count the front's calls of ``parse_submission``."""
    calls = []
    parse = http_module.parse_submission

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(http_module, "parse_submission", counted)
    return calls


@pytest.fixture
def front(tmp_path):
    """A front over a service that was never started: jobs queue, nothing runs."""
    service = SynthesisService(tmp_path, workers=1)
    server = SynthesisServer(("127.0.0.1", 0), service)
    yield server
    server.server_close()
    service.shutdown(drain=False)


def post(server: SynthesisServer, body: bytes):
    """(status, payload) of one ``POST /tasks``, errors included."""
    try:
        status, payload, _headers = server._dispatch("POST", "/tasks", body)
    except http_module._HTTPError as exc:
        return exc.status, {"error": str(exc)}
    return status, payload


def keys(server: SynthesisServer, body: bytes) -> list:
    status, payload = post(server, body)
    assert status == 202, payload
    return [job["key"] for job in payload["jobs"]]


class TestOneParsePerBody:
    def test_identical_bodies_parse_once_and_share_one_task(self, tmp_path, parses):
        bodies = [body_of(inline_spec()), body_of(NAMED)]
        with start_server(workers=1, state_dir=tmp_path) as handle:
            service = handle.service
            jobs = []
            for body in bodies * 4:
                request = urllib.request.Request(f"{handle.url}/tasks", data=body, method="POST")
                with urllib.request.urlopen(request, timeout=30) as response:
                    (entry,) = json.loads(response.read())["jobs"]
                jobs.append(service.job(entry["id"]))
            service.wait(jobs, timeout=120)
        assert len(parses) == 2
        for first, job in zip(jobs, jobs[2:]):
            assert job.task is first.task
            assert job.key == first.key == first.task.cache_key()
        assert [job.state for job in jobs[2:]] == ["done"] * 6

    def test_a_batch_body_shares_every_task(self, parses):
        body = body_of({"tasks": [NAMED, inline_spec()], "priority": 2})
        memo = SubmissionMemo()
        first, second = memo.admit(body), memo.admit(body)
        assert second is first and first.priority == 2
        assert len(parses) == 1
        assert all("_cache_key" in vars(task) for task in first.tasks)

    def test_a_deadline_is_stamped_once_and_keys_as_the_service_stamps(self, parses):
        spec = {"graph": "hal", "latency": 17, "power_budget": 12.0, "scheduler": "portfolio",
                "options": {"portfolio_strategies": ["engine", "pasap"]}}
        memo = SubmissionMemo()
        first = memo.admit(body_of(dict(spec, deadline_s=30)))
        assert memo.admit(body_of(dict(spec, deadline_s=30))) is first
        assert len(parses) == 1
        (task,) = first.tasks
        assert first.deadline_s is None and task.options["portfolio_deadline_s"] == 30.0
        assert task.cache_key() == with_deadline(SynthesisTask.from_dict(spec), 30).cache_key()


class TestJobLog:
    def test_jobs_jsonl_is_the_plain_encoding_of_each_event(self, tmp_path):
        spec = inline_spec(label="memo")
        body = body_of(spec)
        with start_server(workers=1, state_dir=tmp_path) as handle:
            service, server = handle.service, handle.server
            first = service.job(post(server, body)[1]["jobs"][0]["id"])
            service.wait([first], timeout=120)
            warm = [service.job(post(server, body)[1]["jobs"][0]["id"]) for _ in range(2)]
        # what the front wrote before the memo: a fresh parse per job
        task = SynthesisTask.from_dict(spec).to_dict()
        expected = []
        for job in [first, *warm]:
            expected.append(plain({"event": "submit", "id": job.id, "ts": job.submitted_at,
                                   "task": task, "key": job.key, "priority": 0}))
            if job is first:
                expected.append(plain({"event": "start", "id": job.id, "ts": job.started_at}))
            expected.append(plain({"event": "finish", "id": job.id, "ts": job.finished_at,
                                   "state": "done", "record": job.record, "error": None,
                                   "error_type": None}))
        assert (tmp_path / "jobs.jsonl").read_text().splitlines() == expected
        assert warm[0].task is warm[1].task is first.task
        for job in [first, *warm]:
            assert "task" not in job.record  # written once, by the submit line
            assert job.to_dict()["record"] == {**job.record, "task": task}
            assert job.to_json() == plain(job.to_dict())


class TestRegistryBindings:
    def test_replacing_a_benchmark_moves_the_key_and_restoring_it_moves_it_back(self, front):
        body = body_of(NAMED)
        original = BENCHMARKS.get("hal")
        (before,) = keys(front, body)
        assert before == SynthesisTask.from_dict(NAMED).cache_key()
        try:
            register_benchmark("hal", lambda: original.build().copy(name="hal-variant"),
                               latencies=original.latencies, in_paper=original.in_paper,
                               replace=True)
            (replaced,) = keys(front, body)
            assert replaced != before
            assert replaced == SynthesisTask.from_dict(NAMED).cache_key()
        finally:
            register_benchmark("hal", original.builder, latencies=original.latencies,
                               in_paper=original.in_paper, replace=True)
        assert keys(front, body) == [before]

    def test_replacing_a_library_moves_the_key_and_restoring_it_moves_it_back(self, front):
        body = body_of(NAMED)
        original = LIBRARIES.get("table1")
        (before,) = keys(front, body)

        def variant():
            library = original()
            return FULibrary(library.modules()[:-1], name=library.name)

        try:
            LIBRARIES.register("table1", variant, replace=True)
            (replaced,) = keys(front, body)
            assert replaced != before
            assert replaced == SynthesisTask.from_dict(NAMED).cache_key()
        finally:
            LIBRARIES.register("table1", original, replace=True)
        assert keys(front, body) == [before]

    def test_a_removed_name_draws_the_400_of_an_unknown_one(self, front, tmp_path):
        body = body_of(dict(NAMED, graph="memo-probe"))
        register_benchmark("memo-probe", get_benchmark("hal").builder)
        try:
            assert post(front, body)[0] == 202
        finally:
            BENCHMARKS.unregister("memo-probe")
        status, payload = post(front, body)
        fresh_service = SynthesisService(tmp_path / "fresh", workers=1)
        fresh = SynthesisServer(("127.0.0.1", 0), fresh_service)
        try:
            assert post(fresh, body) == (status, payload)
        finally:
            fresh.server_close()
            fresh_service.shutdown(drain=False)
        assert status == 400
        assert payload["error"].startswith("bad task submission: unknown benchmark 'memo-probe'")
        assert post(front, body) == (status, payload)
        assert len(front._submissions) == 0


class TestFailuresAreNotKept:
    @pytest.mark.parametrize(
        "body",
        [b'{"graph": ', b"[]", body_of(dict(NAMED, options={"bogus": 1})),
         body_of(dict(NAMED, library="no-such-library")), body_of(dict(NAMED, deadline_s=5))],
        ids=["not-json", "no-tasks", "unknown-option", "unknown-library", "deadline-on-engine"],
    )
    def test_a_bad_body_is_refused_each_time(self, front, parses, body):
        first = post(front, body)
        assert first[0] == 400 and first[1]["error"].startswith("bad task submission: ")
        assert post(front, body) == first
        assert len(parses) == 2
        assert len(front._submissions) == 0 and front._submissions.size == 0


class TestBounds:
    def test_the_least_recently_used_body_goes_first(self, monkeypatch, parses):
        monkeypatch.setattr(http_module, "MEMO_MAX_BODIES", 3)
        memo = SubmissionMemo()
        bodies = [body_of(dict(NAMED, power_budget=float(p))) for p in range(10, 15)]
        for body in bodies[:3]:
            memo.admit(body)
        memo.admit(bodies[0])  # touched: now the most recent
        memo.admit(bodies[3])  # evicts bodies[1]
        assert len(memo) == 3 and len(parses) == 4
        memo.admit(bodies[0])
        assert len(parses) == 4
        memo.admit(bodies[1])
        assert len(parses) == 5
        for body in bodies:
            memo.admit(body)
        assert len(memo) == 3
        assert memo.size == sum(len(body) for body in bodies[2:])

    def test_the_byte_bound_holds(self, monkeypatch, parses):
        big = [body_of(inline_spec(power_budget=float(p))) for p in range(10, 14)]
        monkeypatch.setattr(http_module, "MEMO_MAX_BYTES", 2 * len(big[0]) + len(big[0]) // 2)
        memo = SubmissionMemo()
        for body in big:
            memo.admit(body)
            assert memo.size <= http_module.MEMO_MAX_BYTES
        assert len(memo) == 2
        assert memo.size == len(big[2]) + len(big[3])

    def test_a_body_over_the_byte_bound_is_never_kept(self, monkeypatch, parses):
        body = body_of(inline_spec())
        monkeypatch.setattr(http_module, "MEMO_MAX_BYTES", len(body) - 1)
        memo = SubmissionMemo()
        first, second = memo.admit(body), memo.admit(body)
        assert len(parses) == 2 and len(memo) == 0 and memo.size == 0
        assert first.tasks[0].cache_key() == second.tasks[0].cache_key()
