"""A small blocking client for the synthesis service (stdlib ``http.client``).

:class:`Client` speaks the JSON protocol of :mod:`repro.serve.http`:
submit task specs (optionally with a queue priority), poll jobs, fetch
certified result records.  It is what ``repro submit`` and the
end-to-end tests use — deliberately synchronous and dependency-free,
mirroring how a script or CI job would drive a shared synthesis server.

Production manners are built in rather than left to every caller:

* **One kept-alive connection per thread** — each thread sends every
  request on its own HTTP/1.1 connection (RFC 9112 §9.3), so a warm
  job pays no TCP handshake.  The connection lives in a
  ``threading.local`` tagged with the pid: threads sharing a client
  never interleave on one socket, and a forked child opens its own
  instead of writing to its parent's.  It is replaced when the last
  response said ``Connection: close`` (the server's error responses
  do), when a zero-timeout check before a request finds the idle socket
  readable (closed by the server, or holding bytes no request asked
  for), and after any failed or timed-out request, so a late response
  can never answer a later request.  :meth:`Client.close` (or leaving a
  ``with Client(...)`` block) closes the calling thread's connection; a
  collected client or a finished thread closes its own.
* **Split timeouts** — ``connect_timeout`` bounds the TCP handshake,
  ``read_timeout`` bounds each response read, so a silent server cannot
  hang a client for the combined worst case of both.  A new
  connection also sets ``TCP_NODELAY``: ``http.client`` writes a POST's
  head and body separately, and Nagle's algorithm would hold the body
  for the server's delayed ACK.
* **Bounded retry with exponential backoff** — ``429`` (queue full) and
  ``5xx`` responses are retried up to ``retries`` times, sleeping
  ``backoff * 2**attempt`` capped at ``backoff_cap`` seconds, honoring
  the server's ``Retry-After`` header when it asks for longer (still
  capped).  Everything else — 4xx mistakes, transport failures,
  timeouts — raises immediately; retrying a malformed submission
  cannot fix it.  One exception: a ``GET`` whose reused connection
  fails before any response byte (the server closed it after the idle
  check) goes once more on a fresh connection.  A ``POST`` is never
  sent twice — the server may have admitted it.

Quickstart::

    from repro.serve import Client, start_server

    with start_server(workers=2) as handle, Client(handle.url) as client:
        records = client.submit_and_wait(
            {"graph": "hal", "latency": 17, "power_budget": 12.0}
        )
        print(records[0].feasible, records[0].area)
"""

from __future__ import annotations

import http.client
import json
import os
import select
import socket
import threading
import time
import urllib.parse
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..api.batch import TaskResult
from ..api.task import SynthesisTask

#: Statuses worth retrying: backpressure and transient server trouble.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


def _readable(sock: socket.socket) -> bool:
    """Whether ``sock`` has something to read (data or EOF) right now."""
    try:
        poller = select.poll()
    except AttributeError:  # pragma: no cover - platforms without poll(2)
        return bool(select.select([sock], [], [], 0)[0])
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class _KeptConnection(http.client.HTTPConnection):
    """A kept-alive connection that closes its socket once nothing holds
    it: its client was collected, or the thread that kept it ended."""

    def __del__(self) -> None:
        self.close()


class ClientError(RuntimeError):
    """An HTTP-level failure talking to the service.

    Attributes:
        status: HTTP status code (``None`` for transport errors).
        retry_after: Seconds the server asked us to wait (429 responses),
            or ``None``.
    """

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class Client:
    """Blocking JSON/HTTP client for one synthesis server.

    Safe to share between threads: each thread keeps its own connection
    (see the module docstring).  Use it as a context manager, or call
    :meth:`close`, to close the calling thread's connection.

    Args:
        base_url: Server address, e.g. ``"http://127.0.0.1:8642"`` (what
            :func:`repro.serve.start_server` returns on ``handle.url``).
        timeout: Default for both ``connect_timeout`` and
            ``read_timeout`` when those are not given.
        connect_timeout: Seconds allowed for the TCP connect.
        read_timeout: Seconds allowed for each response read.
        retries: Retry attempts *after* the first try for retryable
            statuses (429/5xx).  ``0`` disables retrying.
        backoff: Base backoff in seconds; attempt ``n`` sleeps
            ``backoff * 2**n`` (before capping).
        backoff_cap: Upper bound on any single sleep, including one
            requested by a ``Retry-After`` header.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 10.0,
        connect_timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
        retries: int = 3,
        backoff: float = 0.1,
        backoff_cap: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme {split.scheme!r} in {base_url!r}")
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or 80
        self.timeout = timeout
        self.connect_timeout = connect_timeout if connect_timeout is not None else timeout
        self.read_timeout = read_timeout if read_timeout is not None else timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        #: ``kept``: this thread's ``(pid, connection)``, or ``None``
        self._local = threading.local()

    def close(self) -> None:
        """Close the calling thread's connection; the next request opens another."""
        kept = getattr(self._local, "kept", None)
        self._local.kept = None
        if kept is not None:
            kept[1].close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _connection(self, path: str) -> Tuple[http.client.HTTPConnection, bool]:
        """The calling thread's connection, and whether it is a reused one.

        A kept connection is reused only in the process that opened it and
        only while its idle socket has nothing to read: a readable idle
        socket holds the server's EOF or bytes no request asked for.
        """
        kept = getattr(self._local, "kept", None)
        if kept is not None:
            pid, conn = kept
            if pid == os.getpid() and not _readable(conn.sock):
                return conn, True
            # closing a forked child's copy leaves the parent's socket open
            self.close()
        conn = _KeptConnection(self._host, self._port, timeout=self.connect_timeout)
        try:
            conn.connect()
        except (socket.timeout, TimeoutError) as exc:
            raise ClientError(f"{path}: connect timed out") from exc
        except OSError as exc:
            raise ClientError(f"{path}: {exc}") from exc
        # the connect deadline has served its purpose; from here on the
        # clock that matters is how long a response read may stall
        conn.sock.settimeout(self.read_timeout)
        # a POST's head and body go out in two writes
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._local.kept = (os.getpid(), conn)
        return conn, False

    def _exchange(
        self, path: str, method: str, data: Optional[bytes], headers: Dict[str, str]
    ) -> Tuple[http.client.HTTPResponse, bytes]:
        """One request on the calling thread's connection: the response
        and its body."""
        conn, reused = self._connection(path)
        try:
            try:
                conn.request(method, path, body=data, headers=headers)
                response = conn.getresponse()
            except ConnectionError:
                # the server closed a kept connection after the idle check:
                # no response byte came, so a GET goes again on a fresh
                # connection; a POST may have been admitted, so not it
                if not reused or data is not None:
                    raise
                self.close()
                conn, _reused = self._connection(path)
                conn.request(method, path, body=data, headers=headers)
                response = conn.getresponse()
            raw = response.read()
        except BaseException:
            # whatever the connection holds now (a late response, half a
            # request) must never answer a later request
            self.close()
            raise
        if response.will_close:
            self.close()
        return response, raw

    def _request_once(
        self, path: str, *, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            response, raw = self._exchange(
                path, "POST" if body is not None else "GET", data, headers
            )
        except (socket.timeout, TimeoutError) as exc:
            raise ClientError(f"{path}: read timed out") from exc
        except (http.client.HTTPException, OSError) as exc:
            raise ClientError(f"{path}: {exc}") from exc
        if response.status >= 400:
            try:
                detail = json.loads(raw.decode("utf-8")).get("error", "")
            except ValueError:
                detail = ""
            retry_after: Optional[float] = None
            header = response.getheader("Retry-After")
            if header:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
            raise ClientError(
                f"{path}: HTTP {response.status}"
                + (f" — {detail}" if detail else ""),
                status=response.status,
                retry_after=retry_after,
            )
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise ClientError(f"{path}: malformed response body") from exc

    def _request(
        self, path: str, *, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        attempt = 0
        while True:
            try:
                return self._request_once(path, body=body)
            except ClientError as exc:
                retryable = exc.status in RETRYABLE_STATUSES
                if not retryable or attempt >= self.retries:
                    raise
                delay = min(self.backoff_cap, self.backoff * (2 ** attempt))
                if exc.retry_after is not None:
                    delay = min(self.backoff_cap, max(delay, exc.retry_after))
                self._sleep(delay)
                attempt += 1

    # ------------------------------------------------------------------ #
    # Protocol
    # ------------------------------------------------------------------ #
    def submit(
        self,
        tasks: Union[SynthesisTask, Dict[str, Any], Sequence[Union[SynthesisTask, Dict[str, Any]]]],
        *,
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """POST tasks; returns the accepted ``{id, key, state}`` entries.

        Accepts a single :class:`~repro.api.task.SynthesisTask` or spec
        dict, or a sequence of either.  ``priority`` orders the queue:
        higher-priority jobs are dequeued first.  ``deadline_s`` is the
        portfolio job option: every submitted task must then be a
        portfolio task, and the server stamps the deadline into its
        content address before admission (non-portfolio tasks draw a
        400).
        """
        if isinstance(tasks, (SynthesisTask, dict)):
            tasks = [tasks]
        specs = [
            task.to_dict() if isinstance(task, SynthesisTask) else dict(task)
            for task in tasks
        ]
        body: Dict[str, Any] = {"tasks": specs, "priority": int(priority)}
        if deadline_s is not None:
            body["deadline_s"] = float(deadline_s)
        return self._request("/tasks", body=body)["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        """GET one job's status record."""
        return self._request(f"/jobs/{job_id}")

    def result(self, key: str) -> TaskResult:
        """GET the certified record stored under a content address."""
        payload = self._request(f"/results/{key}")
        return TaskResult.from_dict(payload["record"])

    def healthz(self) -> Dict[str, Any]:
        """GET the liveness payload."""
        return self._request("/healthz")

    def stats(self) -> Dict[str, Any]:
        """GET the queue/cache/strategy counters."""
        return self._request("/stats")

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def wait(
        self,
        jobs: Iterable[Dict[str, Any]],
        *,
        timeout: float = 120.0,
        poll: float = 0.05,
    ) -> List[Dict[str, Any]]:
        """Poll until every submitted job finishes; returns final job dicts.

        ``jobs`` is what :meth:`submit` returned.  Raises
        :class:`ClientError` on timeout, naming the job that was still
        unfinished.
        """
        deadline = time.monotonic() + timeout
        final: List[Dict[str, Any]] = []
        for entry in jobs:
            job_id = entry["id"]
            while True:
                state = self.job(job_id)
                if state["state"] in ("done", "failed"):
                    final.append(state)
                    break
                if time.monotonic() > deadline:
                    raise ClientError(
                        f"timed out waiting for job {job_id} "
                        f"(state {state['state']!r})"
                    )
                time.sleep(poll)
        return final

    @staticmethod
    def records_from_states(
        states: Iterable[Dict[str, Any]],
    ) -> List[TaskResult]:
        """Reconstruct one :class:`TaskResult` per final job-state dict.

        ``done`` jobs yield their stored record; ``failed`` jobs (e.g. a
        certificate rejection) become infeasible records carrying the
        error, mirroring how :func:`~repro.api.batch.run_batch` reports
        failures as data.  Shared by :meth:`submit_and_wait` and the
        ``repro submit --wait`` CLI so the two can never diverge.
        """
        records: List[TaskResult] = []
        for state in states:
            if state["state"] == "done" and state.get("record"):
                records.append(TaskResult.from_dict(state["record"]))
            else:
                records.append(
                    TaskResult(
                        task=SynthesisTask.from_dict(state["task"]),
                        feasible=False,
                        error=state.get("error"),
                        error_type=state.get("error_type"),
                    )
                )
        return records

    def submit_and_wait(
        self,
        tasks: Union[SynthesisTask, Dict[str, Any], Sequence[Union[SynthesisTask, Dict[str, Any]]]],
        *,
        timeout: float = 120.0,
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> List[TaskResult]:
        """Submit, wait, and reconstruct one :class:`TaskResult` per task."""
        accepted = self.submit(tasks, priority=priority, deadline_s=deadline_s)
        return self.records_from_states(self.wait(accepted, timeout=timeout))
