"""Tests for the HTTP surface and the blocking client."""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.serve import Client, ClientError, start_server
from repro.serve.http import parse_submission


@pytest.fixture(scope="module")
def server():
    with start_server(workers=2) as handle:
        yield handle


@pytest.fixture()
def client(server):
    return Client(server.url)


class TestParseSubmission:
    def test_single_spec_object(self):
        submission = parse_submission('{"graph": "hal", "latency": 17}')
        assert len(submission.tasks) == 1 and submission.tasks[0].graph == "hal"
        assert submission.priority == 0

    def test_list_and_batch_file_forms(self):
        assert len(parse_submission('[{"graph": "hal", "latency": 17}]').tasks) == 1
        batch = {
            "tasks": [{"graph": "hal", "latency": 17}],
            "sweeps": [{"graph": "hal", "latency": 17, "power_budgets": [10, 12]}],
        }
        assert len(parse_submission(json.dumps(batch)).tasks) == 3

    def test_priority_rides_the_envelope(self):
        single = parse_submission('{"graph": "hal", "latency": 17, "priority": 5}')
        assert single.priority == 5 and single.tasks[0].graph == "hal"
        batch = parse_submission(
            '{"tasks": [{"graph": "hal", "latency": 17}], "priority": -2}'
        )
        assert batch.priority == -2 and len(batch.tasks) == 1

    def test_non_integer_priority_is_rejected(self):
        from repro.api.task import TaskError

        with pytest.raises(TaskError):
            parse_submission('{"graph": "hal", "priority": "high"}')

    def test_invalid_json_raises_task_error(self):
        from repro.api.task import TaskError

        with pytest.raises(TaskError):
            parse_submission("not json{")


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["workers"] == 2

    def test_submit_poll_fetch_roundtrip(self, client):
        jobs = client.submit({"graph": "hal", "latency": 17, "power_budget": 12.0})
        assert len(jobs) == 1
        assert len(jobs[0]["key"]) == 64  # sha-256 content address
        (final,) = client.wait(jobs, timeout=60)
        assert final["state"] == "done"
        assert final["record"]["feasible"] is True

        record = client.result(jobs[0]["key"])
        assert record.feasible and record.area == final["record"]["area"]

    def test_stats_includes_batch_summary(self, client):
        client.submit_and_wait({"graph": "hal", "latency": 17, "power_budget": 10.0})
        stats = client.stats()
        assert stats["summary"]["total"] >= 1
        assert set(stats["cache"]) == {"hits", "misses", "writes", "hit_rate", "backend"}
        assert stats["cache"]["backend"] in {"legacy", "columnar"}

    def test_jobs_listing(self, server, client):
        client.submit_and_wait({"graph": "hal", "latency": 17, "power_budget": 12.0})
        with urllib.request.urlopen(f"{server.url}/jobs") as response:
            listing = json.loads(response.read())
        assert listing["jobs"]
        assert listing["jobs"][0]["id"].startswith("job-")

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.job("job-does-not-exist")
        assert excinfo.value.status == 404

    def test_unknown_result_key_is_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.result("f" * 64)
        assert excinfo.value.status == 404

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client._request("/bogus")
        assert excinfo.value.status == 404

    def test_malformed_submission_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/tasks",
            data=b'{"graph": "hal", "lateny": 17}',
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "lateny" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize("budget", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_finite_budget_is_400(self, server, budget):
        # Python's json reads these tokens as floats; none is a budget
        request = urllib.request.Request(
            f"{server.url}/tasks",
            data=b'{"graph": "hal", "latency": 17, "power_budget": ' + budget + b"}",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "must be finite" in json.loads(excinfo.value.read())["error"]

    def test_rejected_requests_cannot_smuggle_a_pipelined_request(self, server):
        # A rejected request leaves its body unread; on a keep-alive
        # connection those bytes would be parsed as the *next* request
        # (request smuggling through a multiplexing proxy).  The server
        # must close the connection instead of answering the smuggled GET.
        host, port = server.server.server_address[:2]
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        raw = (
            b"POST /tasks HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {64 * 1024 * 1024}\r\n\r\n".encode()
            + smuggled
        )
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(raw)
            sock.settimeout(5)
            data = b""
            while True:
                try:
                    chunk = sock.recv(65536)
                except socket.timeout:
                    break
                if not chunk:
                    break
                data += chunk
        text = data.decode("utf-8", errors="replace")
        assert text.startswith("HTTP/1.1 413")
        assert "200 OK" not in text, "the smuggled request must not execute"
        assert text.count("HTTP/1.1 ") == 1, "exactly one response, then close"

    def test_empty_body_is_400(self, server):
        request = urllib.request.Request(f"{server.url}/tasks", data=b"")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_post_to_unknown_path_is_404(self, server):
        request = urllib.request.Request(f"{server.url}/bogus", data=b"{}")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404

    def test_failed_jobs_surface_as_infeasible_records(self, client):
        records = client.submit_and_wait(
            {"graph": "hal", "latency": 17, "power_budget": 2.0}
        )
        assert len(records) == 1
        assert records[0].feasible is False
        assert records[0].error


class TestClientTransport:
    def test_unreachable_server_raises_client_error(self):
        client = Client("http://127.0.0.1:1", timeout=0.2)
        with pytest.raises(ClientError):
            client.healthz()

    def test_submission_to_closed_server_is_503(self, tmp_path):
        handle = start_server(workers=1, state_dir=tmp_path)
        handle.service.queue.close()  # shutting down: no new work
        client = Client(handle.url)
        with pytest.raises(ClientError) as excinfo:
            client.submit({"graph": "hal", "latency": 17})
        assert excinfo.value.status == 503
        handle.close()
