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

:func:`run_claimed_task` is how serve jobs and race contenders execute
— in a child, or, for a race without a deadline, in the process that
runs the race (:class:`~repro.portfolio.executors.InlineExecutor`): it
calls :func:`~repro.api.batch.run_task` and turns the outcome, or the
error, into a dict that can cross a pipe.  The single-flight lives in
``run_task`` itself, for every caller alike: with a readable and
writable cache, a miss is synthesized under the **store-level claim
file** for the task's content address (:mod:`repro.store.claims`), a
waiter polls the cache until the holder's record appears, and a dead
holder's claim goes stale and is broken — so processes sharing a cache
directory synthesize each address once and a SIGKILL never wedges a
key.

Children are forked (POSIX) with every module they need already
imported, or spawned where fork is unavailable.  They are not daemonic,
so a worker may fork the contenders of a deadline race; each worker
registers a :class:`multiprocessing.util.Finalize` that kills its child
before multiprocessing joins non-daemonic children at interpreter exit,
so an unstopped worker never hangs the exit.  Children ignore SIGINT —
shutdown is the parent's decision, delivered as a ``None`` sentinel.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence

from .api.batch import run_task
from .api.task import SynthesisTask
from .explore.cache import ResultCache

# Imported for the children's benefit under the spawn start method and
# to keep fork-time import-lock hazards away: everything a worker child
# touches is loaded before the first fork.
from .verify import certificate as _certificate  # noqa: F401

__all__ = ["ClaimedTaskEntry", "ProcessWorker", "WorkerCrash", "WorkerPool", "run_claimed_task"]

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


def run_claimed_task(
    task: SynthesisTask, cache: Optional[ResultCache], *, verify: bool = True
) -> Dict[str, Any]:
    """Run one task through ``run_task`` and return a plain dict.

    ``run_task`` does the single-flight (the store claim, for a readable
    and writable ``cache``).  Returns the finished record in plain-dict
    form (feasible or infeasible both count as outcomes); an execution
    *error* — a certificate rejection, a genuine bug — comes back as
    ``{"error": …, "error_type": …}`` rather than raising, because the
    caller may live on the far side of a pipe.
    """
    try:
        return run_task(task, keep_result=False, cache=cache, verify=verify).to_dict()
    except Exception as exc:  # noqa: BLE001 - shipped across the pipe
        return {"error": str(exc), "error_type": type(exc).__name__}


class ClaimedTaskEntry:
    """Entry running ``{"task": …}`` payloads through :func:`run_claimed_task`.

    The child opens ``cache_dir`` with the ``read``/``write`` flags on its
    first payload and keeps it; ``cache_dir=None`` runs cacheless.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        *,
        read: bool = True,
        write: bool = True,
        verify: bool = True,
    ) -> None:
        self.cache_dir = cache_dir
        self.read = read
        self.write = write
        self.verify = verify
        self._cache: Optional[ResultCache] = None

    def __call__(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self._cache is None and self.cache_dir is not None:
            self._cache = ResultCache(self.cache_dir, read=self.read, write=self.write)
        return run_claimed_task(
            SynthesisTask.from_dict(payload["task"]), self._cache, verify=self.verify
        )


def _child_main(conn, entry: Entry) -> None:
    """Worker-child loop: payload in, ``entry(payload)`` out, until EOF."""
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


def _kill(process, timeout: float = 2.0) -> None:
    """SIGTERM, then SIGKILL, a child that is still running."""
    process.terminate()
    process.join(timeout)
    if process.is_alive():  # pragma: no cover - SIGTERM ignored
        process.kill()
        process.join(timeout)


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
        self._process.join(timeout=5.0)
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
        self._process.join(timeout)
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
