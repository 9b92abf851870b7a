"""The client keeps one HTTP/1.1 connection per thread and reuses it.

Against the real server (``start_server``): how many TCP connections a
run of requests opens, a server restart on the same port, two threads
sharing one client, and a forked child.  Against a small scripted
keep-alive server: the reconnect and retry rules, which need a server
that closes idle connections, drops a request unanswered or answers
late on cue.
"""

import http.client
import json
import os
import socket
import sys
import threading
import time

import pytest

from repro.serve import Client, ClientError, start_server
from repro.serve import client as client_module


@pytest.fixture()
def connects(monkeypatch):
    """The TCP connections clients open, counted at ``connect``."""
    opened = []
    connect = http.client.HTTPConnection.connect

    def counted(self):
        opened.append(self)
        return connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counted)
    return opened


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    with start_server(workers=1, state_dir=tmp_path_factory.mktemp("keepalive")) as handle:
        yield handle


def wait_readable(client):
    """Wait until the calling thread's idle connection has something to
    read: the server's close, or bytes it sent unasked."""
    sock = client._local.kept[1].sock
    deadline = time.monotonic() + 5
    while not client_module._readable(sock):
        assert time.monotonic() < deadline, "nothing arrived on the idle connection"
        time.sleep(0.001)


class KeepAliveServer:
    """Answers ``{"path", "connection"}`` to every request, keeping the
    connection open, unless ``plan(connection, index, method, path)``
    says otherwise for the ``index``-th request of a connection:

    * ``"close"`` — answer, then close the socket (an idle close);
    * ``"drop"`` — close the socket without answering;
    * a number — wait that many seconds, then answer.
    """

    def __init__(self, plan=lambda *_request: None):
        self.plan = plan
        self.connections = 0
        self.requests = []
        self._lock = threading.Lock()
        self._sockets = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self.connections += 1
                number = self.connections
                self._sockets.append(conn)
            threading.Thread(target=self._serve, args=(conn, number), daemon=True).start()

    def _serve(self, conn, number):
        buffer = b""
        index = 0
        try:
            while True:
                while b"\r\n\r\n" not in buffer:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buffer += chunk
                head, _, buffer = buffer.partition(b"\r\n\r\n")
                lines = head.decode("latin-1").split("\r\n")
                method, path, _version = lines[0].split(" ", 2)
                length = 0
                for line in lines[1:]:
                    name, _, value = line.partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                while len(buffer) < length:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buffer += chunk
                buffer = buffer[length:]
                with self._lock:
                    self.requests.append((number, method, path))
                action = self.plan(number, index, method, path)
                index += 1
                if action == "drop":
                    return
                if isinstance(action, (int, float)):
                    time.sleep(action)
                body = json.dumps({"path": path, "connection": number}).encode()
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n".encode()
                    + b"Connection: keep-alive\r\n\r\n"
                    + body
                )
                if action == "close":
                    return
        except OSError:
            return
        finally:
            conn.close()

    def close(self):
        self._listener.close()
        with self._lock:
            for conn in self._sockets:
                try:
                    conn.close()
                except OSError:
                    pass


@pytest.fixture()
def scripted():
    servers = []

    def factory(plan=lambda *_request: None):
        servers.append(KeepAliveServer(plan))
        return servers[-1]

    yield factory
    for scripted_server in servers:
        scripted_server.close()


class TestReuse:
    def test_a_hundred_requests_open_one_connection(self, server, connects):
        with Client(server.url) as client:
            (job,) = client.submit({"graph": "hal", "latency": 17, "power_budget": 12.0})
            for _ in range(49):
                assert client.job(job["id"])["id"] == job["id"]
                assert client.healthz()["status"] == "ok"
        assert len(connects) == 1

    def test_close_ends_the_connection_and_the_next_request_opens_one(
        self, scripted, connects
    ):
        target = scripted()
        client = Client(target.url)
        assert client.healthz()["connection"] == 1
        client.close()
        assert client.healthz()["connection"] == 2
        assert client.healthz()["connection"] == 2
        assert len(connects) == 2

    def test_error_responses_close_and_the_next_request_reconnects(self, server, connects):
        client = Client(server.url)
        client.healthz()
        with pytest.raises(ClientError) as excinfo:
            client.job("no-such-job")
        assert excinfo.value.status == 404
        # the server closes a connection after every error response
        assert client.healthz()["status"] == "ok"
        assert len(connects) == 2


class TestReconnect:
    def test_an_idle_connection_the_server_closed_is_replaced(self, scripted, connects):
        target = scripted(lambda _conn, _index, _method, path: "close")
        client = Client(target.url)
        assert client.healthz()["connection"] == 1
        wait_readable(client)
        assert client.healthz()["connection"] == 2
        assert [request[0] for request in target.requests] == [1, 2]

    def test_a_server_restart_on_the_same_port(self, tmp_path, connects):
        handle = start_server(workers=1, state_dir=tmp_path)
        port = handle.server.server_address[1]
        client = Client(handle.url)
        try:
            assert client.healthz()["status"] == "ok"
        finally:
            handle.close()
        handle = start_server(port=port, workers=1, state_dir=tmp_path)
        try:
            assert client.healthz()["status"] == "ok"
        finally:
            handle.close()
        assert len(connects) == 2

    def test_stray_bytes_on_an_idle_connection_force_a_reconnect(self, scripted):
        target = scripted()
        client = Client(target.url)
        assert client.healthz()["connection"] == 1
        # bytes no request asked for, as if a response came twice
        with target._lock:
            stray = target._sockets[0]
        stray.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
        wait_readable(client)
        assert client.healthz() == {"path": "/healthz", "connection": 2}


class TestRetryRules:
    """The server closes a kept connection between the client's idle check
    and its request: the check is made to miss the close."""

    @pytest.fixture()
    def missed_close(self, scripted, monkeypatch):
        target = scripted(lambda conn, index, _method, _path: "close" if conn == 1 else None)
        client = Client(target.url)
        assert client.healthz()["connection"] == 1
        wait_readable(client)
        monkeypatch.setattr(client_module, "_readable", lambda _sock: False)
        return target, client

    def test_a_get_is_retried_once_on_a_fresh_connection(self, missed_close, connects):
        target, client = missed_close
        assert client.job("abc") == {"path": "/jobs/abc", "connection": 2}
        assert len(connects) == 1
        assert target.requests == [(1, "GET", "/healthz"), (2, "GET", "/jobs/abc")]

    def test_a_post_is_raised_and_never_resent(self, missed_close, connects):
        target, client = missed_close
        with pytest.raises(ClientError) as excinfo:
            client.submit({"graph": "hal", "latency": 17})
        assert excinfo.value.status is None
        assert connects == []
        assert target.connections == 1
        assert [request[1] for request in target.requests] == ["GET"]

    def test_a_get_that_fails_again_is_raised(self, scripted, monkeypatch, connects):
        target = scripted(
            lambda conn, _index, _method, _path: "close" if conn == 1 else "drop"
        )
        client = Client(target.url, retries=3)
        client.healthz()
        wait_readable(client)
        monkeypatch.setattr(client_module, "_readable", lambda _sock: False)
        with pytest.raises(ClientError):
            client.healthz()
        assert target.connections == 2, "one retry, on one fresh connection"
        assert len(connects) == 2


class TestTimeouts:
    def test_a_late_response_never_answers_the_next_request(self, scripted):
        target = scripted(lambda _conn, _index, _method, path: 0.5 if path == "/slow" else None)
        client = Client(target.url, read_timeout=0.1)
        assert client.healthz()["connection"] == 1
        with pytest.raises(ClientError, match="read timed out"):
            client._request("/slow")
        # asked before the late answer arrives, so only closing the
        # timed-out connection keeps that answer from being read here
        assert client._request("/fast") == {"path": "/fast", "connection": 2}


class TestThreadsAndForks:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_threads_sharing_a_client_each_get_their_own_jobs(
        self, server, connects, threads
    ):
        client = Client(server.url)
        jobs = client.submit(
            [{"graph": "hal", "latency": 17, "power_budget": 12.0 + n} for n in range(threads)]
        )
        client.close()
        connects.clear()
        mismatches = []

        def poll(job_id):
            for _ in range(200):
                got = client.job(job_id)["id"]
                if got != job_id:
                    mismatches.append((job_id, got))

        pollers = [threading.Thread(target=poll, args=(job["id"],)) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-request, often
        try:
            for poller in pollers:
                poller.start()
            for poller in pollers:
                poller.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(poller.is_alive() for poller in pollers)
        assert mismatches == []
        assert len(connects) == threads, "one connection per thread"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_opens_its_own_connection(self, scripted):
        target = scripted()
        client = Client(target.url)
        assert client.healthz()["connection"] == 1
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                os.close(read_end)
                answer = client.healthz()
                os.write(write_end, json.dumps(answer).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            child_answer = json.loads(pipe.read())
        _pid, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert child_answer["connection"] == 2
        # the parent's connection is untouched by the child
        assert client.healthz()["connection"] == 1
        assert target.connections == 2
