"""The HTTP surface of the synthesis service (stdlib-only, selector-based).

A thin, dependency-free JSON-over-HTTP layer on top of
:class:`~repro.serve.service.SynthesisService`.  PR-5's front was
``ThreadingHTTPServer`` — one OS thread per connection — which falls
over exactly where a polling protocol stresses it: thousands of mostly
*idle* client connections each pinning a thread.  This version is a
single-threaded event loop over :mod:`selectors`: one thread owns the
listening socket and every connection, parses requests incrementally
from non-blocking reads, and writes responses as sockets drain.  An
idle poller costs one registered file descriptor, nothing more.
Synthesis concurrency is unaffected — it lives in the service's worker
tier (child processes by default), not in the front.

Endpoints:

* ``POST /tasks`` — submit work.  The body is a single task spec object,
  a JSON list of specs, or a full batch file (``{"tasks": [...],
  "sweeps": [...]}``, the same format ``repro batch`` reads); an
  enclosing object may carry ``"priority": N`` (higher runs first) and
  ``"deadline_s": S`` (a race budget stamped onto submitted
  ``portfolio`` tasks before admission keys them).
  Returns ``202`` with one ``{id, key, state}`` entry per accepted job,
  or ``429`` with a ``Retry-After`` header when the queue is at its
  configured depth — backpressure, not silent buffering.
* ``GET /jobs/<id>`` — a job's full status/progress record.
* ``GET /results/<key>`` — the certified result record stored under a
  content address (the ``key`` echoed at submission); ``404`` until the
  synthesis finishes.
* ``GET /jobs`` — every job, in submission order (small-fleet admin).
* ``GET /healthz`` — liveness: worker status, queue depth, uptime.
* ``GET /stats`` — queue/cache/strategy counters plus the same
  :class:`~repro.api.batch.BatchSummary` numbers ``repro batch`` prints.

Every response body is compact JSON with sorted keys, which the C
encoder writes (pipe it through ``python -m json.tool`` to read it); a
task is encoded once and spliced into each status of a job holding it.

A repeated ``POST /tasks`` body costs one SHA-256: the front keeps the
parsed, keyed submissions of recent bodies (:class:`SubmissionMemo`,
bounded by ``MEMO_MAX_BODIES`` bodies and ``MEMO_MAX_BYTES`` of body
text, least recently used out first), and the jobs of identical bodies
share their task objects.

Protocol discipline: HTTP/1.1 with keep-alive; every error response
(400/404/413/429/503) closes the connection after exactly one response,
discarding whatever the client pipelined behind the rejected request —
the anti-request-smuggling rule the threaded front already enforced.
A body whose declared ``Content-Length`` exceeds ``MAX_BODY_BYTES``
is rejected at the header stage, before any of it is read.

Start one with :func:`start_server` (in-process, ephemeral port — what
the tests and :mod:`examples.serve_quickstart` do) or via the ``repro
serve`` CLI command.
"""

from __future__ import annotations

import hashlib
import json
import math
import selectors
import socket
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import Any, Dict, List, Optional, Tuple, Union

from ..api.task import TaskError, SynthesisTask, compact_json, tasks_from_payload
from ..portfolio.config import check_deadline, with_deadline
from ..registries import LIBRARIES, UnknownStrategyError
from ..suite.registry import BENCHMARKS
from .queue import QueueFullError
from .service import SynthesisService

#: Largest accepted request body (a batch file of inline CDFGs is big;
#: an unbounded read is a denial-of-service hazard).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Largest accepted request head (request line + headers).
MAX_HEADER_BYTES = 64 * 1024

#: Per-recv read size for the event loop.
_RECV_SIZE = 65536

#: Bounds of the front's :class:`SubmissionMemo`: the bodies it keeps,
#: and the bytes of body text they add up to.
MEMO_MAX_BODIES = 256
MEMO_MAX_BYTES = 16 * 1024 * 1024

#: A response body: a JSON-safe dict, or its :func:`compact_json` text.
_Payload = Union[Dict[str, Any], str]

#: The registry entry of each (registry, name) a memoized submission was
#: keyed against.
_Bindings = Dict[Tuple[Any, str], Any]


@dataclass
class Submission:
    """A parsed ``POST /tasks`` body: the tasks plus queue metadata."""

    tasks: List[SynthesisTask]
    priority: int = 0
    deadline_s: Optional[float] = None


def parse_submission(text: str) -> Submission:
    """Parse a ``POST /tasks`` body into a :class:`Submission`.

    Accepts the single-spec object form (``{"graph": "hal", ...}``) as
    sugar on top of everything :func:`~repro.api.task.tasks_from_json`
    reads (a list of specs, or ``{"tasks": [...], "sweeps": [...]}``);
    the body is parsed once.
    An object form may carry a ``"priority"`` integer (higher-priority
    jobs are dequeued first) and a ``"deadline_s"`` number — a race
    budget stamped onto every submitted ``portfolio`` task before
    admission (it is part of the content address, so it must be in the
    spec before the job is keyed).
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise TaskError(f"request body is not valid JSON: {exc}") from exc
    priority = 0
    deadline_s: Optional[float] = None
    if isinstance(payload, dict) and "priority" in payload:
        raw = payload.pop("priority")
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise TaskError(f"priority must be an integer, got {raw!r}")
        priority = raw
    if isinstance(payload, dict) and "deadline_s" in payload:
        deadline_s = check_deadline(payload.pop("deadline_s"))
    if isinstance(payload, dict) and "graph" in payload:
        return Submission([SynthesisTask.from_dict(payload)], priority, deadline_s)
    return Submission(tasks_from_payload(payload), priority, deadline_s)


class SubmissionMemo:
    """Recent ``POST /tasks`` bodies, by SHA-256, ready for admission.

    A body seen before costs one hash: :meth:`admit` returns the
    :class:`Submission` it was parsed into, whose ``deadline_s`` is
    already stamped onto its tasks (so it reads ``None``) and whose tasks
    already hold their content addresses.  The jobs of identical bodies
    therefore share their task objects, immutable once hashed.

    A task's address depends on the registry entries its benchmark and
    library names resolve to, so an entry keeps the entries it was keyed
    against and a hit re-checks them by identity: after a
    ``replace=True`` re-registration or a removal the body is parsed
    again, and its keys move or it is refused as a fresh body would be.
    Only bodies that parsed and keyed are kept, at most
    ``MEMO_MAX_BODIES`` of them and ``MEMO_MAX_BYTES`` of body text,
    least recently used out first.  Not thread-safe: the front's event
    loop is its one user.
    """

    def __init__(self) -> None:
        #: digest -> (submission, its registry bindings, body size)
        self._entries: "OrderedDict[bytes, Tuple[Submission, _Bindings, int]]" = OrderedDict()
        #: Bytes of body text the kept entries add up to.
        self.size = 0

    def __len__(self) -> int:
        return len(self._entries)

    def admit(self, body: bytes) -> Submission:
        """The submission of ``body``, parsed and keyed at most once.

        Raises:
            TaskError: a malformed body or task.
            UnknownStrategyError: a task names an unregistered
                benchmark or library.
        """
        digest = hashlib.sha256(body).digest()
        entry = self._entries.get(digest)
        if entry is not None:
            if _still_bound(entry[1]):
                self._entries.move_to_end(digest)
                return entry[0]
            self._forget(digest)
        parsed = parse_submission(body.decode("utf-8", errors="replace"))
        tasks = parsed.tasks
        if parsed.deadline_s is not None:
            tasks = [with_deadline(task, parsed.deadline_s) for task in tasks]
        # bind before keying: a re-registration in between then only
        # costs a parse, never a stale key
        bindings: _Bindings = {}
        for task in tasks:
            if isinstance(task.graph, str):
                bindings[BENCHMARKS, task.graph] = BENCHMARKS.get(task.graph)
            if isinstance(task.library, str):
                bindings[LIBRARIES, task.library] = LIBRARIES.get(task.library)
        for task in tasks:
            task.cache_key()
        submission = Submission(tasks, parsed.priority)
        if len(body) <= MEMO_MAX_BYTES:
            self._entries[digest] = (submission, bindings, len(body))
            self.size += len(body)
            while len(self._entries) > MEMO_MAX_BODIES or self.size > MEMO_MAX_BYTES:
                self._forget(next(iter(self._entries)))
        return submission

    def _forget(self, digest: bytes) -> None:
        self.size -= self._entries.pop(digest)[2]


def _still_bound(bindings: _Bindings) -> bool:
    """True while every (registry, name) still resolves to the same entry."""
    try:
        return all(registry.get(name) is item for (registry, name), item in bindings.items())
    except UnknownStrategyError:
        return False


class _HTTPError(Exception):
    """Internal: carry a status + message (and headers) to the responder."""

    def __init__(
        self, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


@dataclass
class _Connection:
    """Per-socket state: buffered bytes in, buffered bytes out, parser."""

    sock: socket.socket
    inbuf: bytes = b""
    outbuf: bytes = b""
    #: Parsed-but-unexecuted request head (method, path, headers), or None
    #: while still accumulating header bytes.
    pending: Optional[Tuple[str, str, Dict[str, str]]] = None
    #: Body bytes still owed for the pending request.
    need_body: int = 0
    #: Close once the out buffer drains (error responses, Connection: close).
    close_after: bool = False
    events: int = field(default=selectors.EVENT_READ)


class SynthesisServer:
    """A selector-based HTTP server bound to one :class:`SynthesisService`.

    One thread (the one inside :meth:`serve_forever`) owns every socket:
    it accepts, reads, parses, dispatches into the service, and writes.
    Handlers are quick — submission is a queue append, status reads are
    dict lookups — so the loop never blocks on synthesis, and a flood of
    idle pollers costs file descriptors rather than threads.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        service: SynthesisService,
        *,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(address)
        self._listener.listen(1024)
        self._listener.setblocking(False)
        self.server_address = self._listener.getsockname()
        self._selector = selectors.DefaultSelector()
        # self-pipe (socketpair) so shutdown() can wake a blocked select()
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._shutdown_requested = threading.Event()
        self._stopped = threading.Event()
        self._connections: Dict[int, _Connection] = {}
        self._submissions = SubmissionMemo()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        """Base URL of the bound socket (the ephemeral port resolved)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` is called."""
        self._selector.register(self._listener, selectors.EVENT_READ, "listener")
        self._selector.register(self._wake_recv, selectors.EVENT_READ, "wake")
        try:
            while not self._shutdown_requested.is_set():
                for key, _mask in self._selector.select(timeout=1.0):
                    if key.data == "listener":
                        self._accept()
                    elif key.data == "wake":
                        try:
                            self._wake_recv.recv(4096)
                        except OSError:  # pragma: no cover
                            pass
                    else:
                        self._handle(key.data)
        finally:
            for conn in list(self._connections.values()):
                self._close(conn)
            for sock in (self._listener, self._wake_recv):
                try:
                    self._selector.unregister(sock)
                except (KeyError, ValueError):  # pragma: no cover
                    pass
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop the event loop (blocks until it exits)."""
        self._shutdown_requested.set()
        try:
            self._wake_send.send(b"x")
        except OSError:  # pragma: no cover - loop already gone
            pass
        self._stopped.wait(5.0)

    def server_close(self) -> None:
        """Release the listening socket and selector."""
        for sock in (self._listener, self._wake_recv, self._wake_send):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        try:
            self._selector.close()
        except (OSError, RuntimeError):  # pragma: no cover
            pass

    # ------------------------------------------------------------------ #
    # Event handling
    # ------------------------------------------------------------------ #
    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # pragma: no cover - listener closing
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover
                pass
            conn = _Connection(sock=sock)
            self._connections[sock.fileno()] = conn
            self._selector.register(sock, conn.events, conn)

    def _handle(self, conn: _Connection) -> None:
        try:
            if conn.events & selectors.EVENT_READ:
                self._readable(conn)
            if conn.sock.fileno() >= 0 and conn.outbuf:
                self._flush(conn)
        except (ConnectionError, OSError):
            self._close(conn)

    def _readable(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(_RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except (ConnectionResetError, OSError):
            self._close(conn)
            return
        if not chunk:
            self._close(conn)
            return
        if conn.close_after:
            # response already queued and the connection is condemned:
            # discard anything the client keeps sending (smuggling rule)
            return
        conn.inbuf += chunk
        self._advance(conn)

    def _advance(self, conn: _Connection) -> None:
        """Drive the per-connection parser as far as the buffer allows."""
        while not conn.close_after:
            if conn.pending is None:
                head_end = conn.inbuf.find(b"\r\n\r\n")
                if head_end < 0:
                    if len(conn.inbuf) > MAX_HEADER_BYTES:
                        self._respond_error(
                            conn, 400, "request head too large"
                        )
                    return
                try:
                    method, path, headers = self._parse_head(
                        conn.inbuf[:head_end]
                    )
                except _HTTPError as exc:
                    self._respond_error(conn, exc.status, str(exc))
                    return
                conn.inbuf = conn.inbuf[head_end + 4:]
                try:
                    length = int(headers.get("content-length") or 0)
                except ValueError:
                    self._respond_error(conn, 400, "bad Content-Length")
                    return
                if length > MAX_BODY_BYTES:
                    # reject on the declared size, before reading any of
                    # the body — and close, so the unread bytes can never
                    # be parsed as a pipelined request
                    self._respond_error(
                        conn, 413, f"request body exceeds {MAX_BODY_BYTES} bytes"
                    )
                    return
                conn.pending = (method, path, headers)
                conn.need_body = max(0, length)
            if len(conn.inbuf) < conn.need_body:
                return
            method, path, headers = conn.pending
            body = conn.inbuf[: conn.need_body]
            conn.inbuf = conn.inbuf[conn.need_body:]
            conn.pending = None
            conn.need_body = 0
            wants_close = headers.get("connection", "").lower() == "close"
            try:
                status, payload, extra = self._dispatch(method, path, body)
            except _HTTPError as exc:
                self._respond_error(conn, exc.status, str(exc), exc.headers)
                return
            except Exception as exc:  # noqa: BLE001 - loop must survive
                self._log(f"internal error on {method} {path}: {exc}")
                self._respond_error(conn, 500, "internal server error")
                return
            self._queue_response(
                conn, status, payload, close=wants_close, headers=extra
            )
            if wants_close:
                return

    @staticmethod
    def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, path, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HTTPError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HTTPError(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), path, headers

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, _Payload, Dict[str, str]]:
        path = path.split("?", 1)[0]
        if method == "POST":
            return self._post(path, body)
        if method in ("GET", "HEAD"):
            return self._get(path)
        raise _HTTPError(405, f"method {method} not allowed")

    def _post(self, path: str, body: bytes) -> Tuple[int, _Payload, Dict[str, str]]:
        if path.rstrip("/") != "/tasks":
            raise _HTTPError(404, f"unknown endpoint {path!r}")
        if not body:
            raise _HTTPError(400, "request body required")
        try:
            submission = self._submissions.admit(body)
        except (TaskError, UnknownStrategyError) as exc:
            # also a deadline_s on a non-portfolio task, or a benchmark
            # or library name nothing registered
            raise _HTTPError(400, f"bad task submission: {exc}") from None
        try:
            jobs = self.service.submit_many(
                submission.tasks, priority=submission.priority
            )
        except QueueFullError as exc:
            retry_after = max(1, math.ceil(exc.retry_after))
            raise _HTTPError(
                429,
                f"queue full: {exc}",
                headers={"Retry-After": str(retry_after)},
            ) from None
        except Exception as exc:  # closed queue during shutdown
            raise _HTTPError(503, str(exc)) from None
        return (
            202,
            {
                "jobs": [
                    {"id": job.id, "key": job.key, "state": job.state}
                    for job in jobs
                ]
            },
            {},
        )

    def _get(self, path: str) -> Tuple[int, _Payload, Dict[str, str]]:
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            return 200, self.service.healthz(), {}
        if path == "/stats":
            return 200, self.service.stats(), {}
        if path == "/jobs":
            jobs = ",".join(job.to_json() for job in self.service.queue.jobs())
            return 200, f'{{"jobs":[{jobs}]}}', {}
        if path.startswith("/jobs/"):
            job = self.service.job(path[len("/jobs/"):])
            if job is None:
                raise _HTTPError(404, f"unknown job {path[len('/jobs/'):]!r}")
            return 200, job.to_json(), {}
        if path.startswith("/results/"):
            key = path[len("/results/"):]
            payload = self.service.result(key)
            if payload is None:
                raise _HTTPError(404, f"no result stored under key {key!r}")
            return 200, payload, {}
        raise _HTTPError(404, f"unknown endpoint {path!r}")

    # ------------------------------------------------------------------ #
    # Responses
    # ------------------------------------------------------------------ #
    def _respond_error(
        self,
        conn: _Connection,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        # rejected requests may carry an unread body; on a keep-alive
        # connection those bytes would be parsed as the *next* request —
        # classic request smuggling through a multiplexing proxy.
        # Closing the connection on every error discards them.
        conn.inbuf = b""
        conn.pending = None
        conn.need_body = 0
        self._queue_response(
            conn, status, {"error": message}, close=True, headers=headers
        )

    def _queue_response(
        self,
        conn: _Connection,
        status: int,
        payload: _Payload,
        *,
        close: bool,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if not isinstance(payload, str):
            payload = compact_json(payload)
        body = payload.encode("utf-8")
        phrase = HTTPStatus(status).phrase if status in HTTPStatus._value2member_map_ else ""
        lines = [
            f"HTTP/1.1 {status} {phrase}",
            "Server: repro-serve",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        lines.append(f"Connection: {'close' if close else 'keep-alive'}")
        conn.outbuf += ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        if close:
            conn.close_after = True
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        try:
            while conn.outbuf:
                sent = conn.sock.send(conn.outbuf)
                if sent <= 0:  # pragma: no cover - defensive
                    break
                conn.outbuf = conn.outbuf[sent:]
        except (BlockingIOError, InterruptedError):
            pass
        except (ConnectionError, OSError):
            self._close(conn)
            return
        wanted = selectors.EVENT_READ | (
            selectors.EVENT_WRITE if conn.outbuf else 0
        )
        if conn.outbuf:
            self._set_events(conn, wanted)
            return
        if conn.close_after:
            self._close(conn)
            return
        self._set_events(conn, wanted)

    def _set_events(self, conn: _Connection, events: int) -> None:
        if events == conn.events or conn.sock.fileno() < 0:
            return
        conn.events = events
        try:
            self._selector.modify(conn.sock, events, conn)
        except (KeyError, ValueError, OSError):  # pragma: no cover
            pass

    def _close(self, conn: _Connection) -> None:
        fd = conn.sock.fileno()
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass
        self._connections.pop(fd, None)

    def _log(self, message: str) -> None:
        if self.verbose:  # pragma: no cover - manual debugging aid
            print(f"[repro-serve] {message}")


class ServerHandle:
    """A started server + its thread; what :func:`start_server` returns.

    Use as a context manager::

        with start_server(workers=2) as handle:
            client = Client(handle.url)
            ...

    ``close()`` shuts the HTTP listener down first (no new work can
    arrive), then the service (``drain=True`` waits for accepted jobs).
    """

    def __init__(self, server: SynthesisServer, thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def service(self) -> SynthesisService:
        return self.server.service

    def close(self, *, drain: bool = True) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.shutdown(drain=drain)
        self.thread.join(5.0)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def start_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    service: Optional[SynthesisService] = None,
    state_dir=None,
    workers: int = 2,
    verbose: bool = False,
    **service_options: Any,
) -> ServerHandle:
    """Boot a synthesis server in-process and return its handle.

    ``port=0`` binds an ephemeral port — read the resolved address from
    ``handle.url``.  Builds (and starts) a default
    :class:`SynthesisService` unless one is passed in; extra keyword
    arguments (``max_queue_depth``, ``cache``, ``verify``, …)
    are forwarded to its constructor.
    """
    if service is None:
        service = SynthesisService(state_dir, workers=workers, **service_options)
    service.start()
    server = SynthesisServer((host, port), service, verbose=verbose)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    thread.start()
    return ServerHandle(server, thread)
