"""The worker substrate: every task run off-process runs on these children.

Parallel batches (:func:`~repro.api.batch.run_batch`), the serving layer
and portfolio races with a deadline
(:class:`~repro.portfolio.executors.ProcessExecutor`) all run on
:class:`ProcessWorker` children: the child calls
``entry(payload)`` for every payload its parent sends, an exception
``entry`` raises is re-raised in the parent with its own type, and a
child that dies mid-job surfaces as :class:`WorkerCrash`.  Killing the
child is how a job is cancelled.  :class:`WorkerPool` is ``size``
workers over one entry.

Every worker constructed in ``repro`` runs one entry,
:func:`repro.api.batch._run_task_payload`, on one payload shape; this
module itself knows nothing of tasks.  Errors cross the pipe as
exceptions: an entry's exception must pickle to keep its type, and one
that does not arrives as ``RuntimeError("<Type>: <message>")``.

Children are forked (POSIX) with every module they need already
imported, or spawned where fork is unavailable.  They are not daemonic,
so a worker may fork the contenders of a deadline race; each worker
registers a :class:`multiprocessing.util.Finalize` that kills its child
before multiprocessing joins non-daemonic children at interpreter exit,
so an unstopped worker never hangs the exit.  A process a worker forks
does not keep its end of the worker's pipe, so a worker's death reaches
its parent at once, and a worker is reaped by pid, so stopping it never
waits for such a grandchild.  Children ignore SIGINT —
shutdown is the parent's decision, delivered as a ``None`` sentinel.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
from collections import deque
from typing import Any, Callable, List, Optional, Sequence

# Imported for the children's benefit under the spawn start method and
# to keep fork-time import-lock hazards away: everything a worker child
# touches is loaded before the first fork.
from .verify import certificate as _certificate  # noqa: F401

__all__ = ["ProcessWorker", "WorkerCrash", "WorkerPool"]

#: A worker entry: one payload in, one picklable outcome out.
Entry = Callable[[Any], Any]


def _context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class WorkerCrash(RuntimeError):
    """A worker child died mid-job (SIGKILL, OOM, hard crash).

    Attributes:
        pid: The dead child's pid.
        exitcode: Its exit code (negative = killed by that signal).
    """

    def __init__(self, pid: Optional[int], exitcode: Optional[int]) -> None:
        super().__init__(f"worker process {pid} died (exitcode {exitcode})")
        self.pid = pid
        self.exitcode = exitcode


#: In a worker child, its end of the pipe to the parent.
_WORKER_CONN = None


def _close_worker_pipe() -> None:
    """Close an inherited worker pipe end in a freshly forked process.

    Were it left open, a grandchild (a deadline race's contender) would
    hold the pipe, and the parent of a SIGKILLed worker would see no EOF
    until the grandchild exits.
    """
    global _WORKER_CONN
    conn, _WORKER_CONN = _WORKER_CONN, None
    if conn is not None:
        conn.close()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_worker_pipe)


def _child_main(conn, entry: Entry) -> None:
    """Worker-child loop: payload in, ``entry(payload)`` out, until EOF."""
    global _WORKER_CONN
    _WORKER_CONN = conn
    try:  # the parent's Ctrl-C must not kill workers mid-synthesis
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    parent = os.getppid()
    while True:
        try:
            # Poll instead of a bare recv: forked siblings inherit each
            # other's parent-end pipe fds, so a SIGKILLed parent never
            # EOFs this pipe — reparenting is the only reliable signal.
            while not conn.poll(1.0):
                if os.getppid() != parent:
                    return
            payload = conn.recv()
        except (EOFError, OSError):
            return
        if payload is None:
            return
        try:
            reply = (True, entry(payload))
        except Exception as exc:  # noqa: BLE001 - re-raised in the parent
            import traceback  # only on this path: no worker pays its import

            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # noqa: BLE001 - an exception that cannot travel
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = (False, (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except OSError:  # pragma: no cover - parent died
            return


def _reap(process, timeout: float) -> None:
    """Wait up to ``timeout`` seconds for ``process`` to exit, by pid.

    ``Process.join`` waits on multiprocessing's sentinel pipe, which every
    process the child forked (a deadline race's contenders) still holds
    open; ``exitcode`` asks ``waitpid`` about the child alone.
    """
    deadline = time.monotonic() + timeout
    while process.exitcode is None and time.monotonic() < deadline:
        time.sleep(0.001)


def _kill(process, timeout: float = 2.0) -> None:
    """SIGTERM, then SIGKILL, a child that is still running."""
    process.terminate()
    _reap(process, timeout)
    if process.exitcode is None:  # pragma: no cover - SIGTERM ignored
        process.kill()
        _reap(process, timeout)


class ProcessWorker:
    """One child process running ``entry``, and the pipe the parent drives it by."""

    def __init__(self, entry: Entry, *, name: str = "repro-worker") -> None:
        # imported here (and ``wait`` in map): forking loads both anyway,
        # and processes that only import repro.serve, clients, never fork
        from multiprocessing.util import Finalize

        ctx = _context()
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(target=_child_main, args=(child_conn, entry), name=name)
        self._process.start()
        # the parent's copy of the child end must close, or a dead child
        # would never surface as EOF on our recv
        child_conn.close()
        self._finalizer = Finalize(self, _kill, args=(self._process,), exitpriority=10)

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    @property
    def connection(self):
        """The parent's pipe end, for :func:`multiprocessing.connection.wait`."""
        return self._conn

    def _crash(self) -> WorkerCrash:
        _reap(self._process, 5.0)
        return WorkerCrash(self._process.pid, self._process.exitcode)

    def submit(self, payload: Any) -> None:
        """Ship one payload without waiting; :class:`WorkerCrash` on a dead pipe."""
        try:
            self._conn.send(payload)
        except OSError:
            raise self._crash() from None

    def receive(self) -> Any:
        """The outcome of the oldest submitted payload (blocking).

        Re-raises the exception the entry raised, or raises
        :class:`WorkerCrash` if the child died before answering.
        """
        try:
            ok, value = self._conn.recv()
        except (EOFError, OSError):
            raise self._crash() from None
        if ok:
            return value
        error, remote_traceback = value
        raise error from RuntimeError(f"in worker {self.pid}:\n{remote_traceback}")

    def run(self, payload: Any) -> Any:
        """Ship one payload and block for its outcome."""
        self.submit(payload)
        return self.receive()

    def kill(self) -> None:
        """Hard-stop the child now, mid-job or not."""
        self._finalizer()
        self._conn.close()

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful stop: sentinel, join, then kill as a last resort."""
        try:
            self._conn.send(None)
        except OSError:
            pass
        _reap(self._process, timeout)
        self.kill()


class WorkerPool:
    """``size`` :class:`ProcessWorker` children over one entry; a context manager."""

    def __init__(self, size: int, entry: Entry, *, name: str = "repro-worker") -> None:
        self._entry = entry
        self._name = name
        self._closed = False
        self._workers = [self._spawn(slot) for slot in range(size)]
        self._idle: "queue.SimpleQueue[int]" = queue.SimpleQueue()
        for slot in range(size):
            self._idle.put(slot)

    def _spawn(self, slot: int) -> ProcessWorker:
        return ProcessWorker(self._entry, name=f"{self._name}-{slot}")

    def run(self, payload: Any) -> Any:
        """One payload's outcome on an idle worker (blocking, thread-safe).

        A worker found dead is respawned; one that dies mid-job raises
        :class:`WorkerCrash`, and its slot is respawned.
        """
        slot = self._idle.get()
        try:
            if not self._workers[slot].alive and not self._closed:
                self._workers[slot] = self._spawn(slot)
            try:
                return self._workers[slot].run(payload)
            except WorkerCrash:
                if not self._closed:
                    self._workers[slot] = self._spawn(slot)
                raise
        finally:
            self._idle.put(slot)

    def map(self, payloads: Sequence[Any]) -> List[Any]:
        """Every payload's outcome, in input order.

        Each worker holds one payload queued ahead of the one it runs.  A
        feeder thread sends them, so a send that fills a pipe never blocks
        the reads here.  A crash or an entry exception kills every child
        and is raised; the pool is closed after that.
        """
        from multiprocessing.connection import wait

        results: List[Any] = [None] * len(payloads)
        workers = {worker.connection: worker for worker in self._workers}
        queued = {conn: deque() for conn in workers}
        # at most 2 per worker: at acquire some worker has at most one queued
        room = threading.Semaphore(2 * len(workers))

        def feed() -> None:
            for index, payload in enumerate(payloads):
                room.acquire()
                if self._closed:
                    return
                conn = min(queued, key=lambda c: len(queued[c]))
                queued[conn].append(index)
                try:
                    workers[conn].submit(payload)
                except Exception:  # noqa: BLE001 - the reads see the dead pipe
                    return

        feeder = threading.Thread(target=feed, name=f"{self._name}-feeder", daemon=True)
        feeder.start()
        try:
            for _ in range(len(payloads)):
                conn = wait(list(workers))[0]
                results[queued[conn].popleft()] = workers[conn].receive()
                room.release()
        except BaseException:
            self._closed = True
            room.release(len(payloads))
            for worker in self._workers:
                worker.kill()
            raise
        feeder.join()
        return results

    def pids(self) -> List[int]:
        """Pids of the live children."""
        return [worker.pid for worker in self._workers if worker.alive]

    def close(self) -> None:
        """Stop every child (idempotent)."""
        self._closed = True
        for worker in self._workers:
            worker.stop()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
