"""The process worker tier: synthesis in child processes, past the GIL.

PR-5's service executed jobs on worker *threads*; for CPU-bound
scheduling/binding they serialize on the GIL, so a 4-worker service
measured barely above 1-worker cold throughput.  This module moves the
execution into child processes — the same shape the batch executor
proved — while the parent keeps everything stateful: the
:class:`~repro.serve.queue.JobQueue`, the in-process per-key claims,
the ``/stats`` counters.

* :func:`run_claimed_task` is the execution protocol (usable in-process
  too): check the shared cache, take the **store-level claim file** for
  the task's content address (:mod:`repro.store.claims`), re-check,
  synthesize through ``run_task(verify=…)``, release.  While someone
  else holds the claim it polls the cache — the holder finishing *is*
  the wakeup — and a holder that dies mid-synthesis goes stale
  (dead pid / expired lease) and is broken, so two service processes
  sharing a cache directory synthesize each address exactly once and a
  SIGKILL never wedges a key.
* :class:`ProcessWorker` is one long-lived child process plus its pipe.
  The parent sends ``(task, key)`` payloads and blocks for the record;
  a child that dies mid-job surfaces as :class:`WorkerCrash` (EOF on
  the pipe, exit code attached) so the service can requeue the job and
  respawn the slot.

Children are forked (POSIX) with every module they need already
imported, or spawned where fork is unavailable.  They ignore SIGINT —
shutdown is the parent's decision, delivered as a ``None`` sentinel.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from typing import Any, Dict, Optional

from ..api.batch import run_task
from ..api.task import SynthesisTask
from ..explore.cache import ResultCache
from ..store import claims

# Imported for the children's benefit under the spawn start method and
# to keep fork-time import-lock hazards away: everything a worker child
# touches is loaded before the first fork.
from ..verify import certificate as _certificate  # noqa: F401

__all__ = ["ProcessWorker", "WorkerCrash", "run_claimed_task"]

#: Seconds between cache polls while another process holds the claim.
CLAIM_POLL = 0.02

#: Default ceiling on waiting for someone else's claim before computing
#: redundantly anyway (the cache keeps that merely wasteful, not wrong).
CLAIM_TIMEOUT = 600.0


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
    task: SynthesisTask,
    cache: ResultCache,
    *,
    verify: bool = True,
    owner: str = "",
    lease: float = claims.DEFAULT_LEASE,
    claim_timeout: float = CLAIM_TIMEOUT,
) -> Dict[str, Any]:
    """Execute one task under the store-level single-flight protocol.

    Returns the finished record in plain-dict form (feasible or
    infeasible both count as outcomes); an execution *error* — a
    certificate rejection, a genuine bug — comes back as
    ``{"error": …, "error_type": …}`` rather than raising, because the
    caller may live on the far side of a pipe.
    """
    key = task.cache_key()
    try:
        deadline = time.monotonic() + claim_timeout
        claim = None
        while True:
            hit = cache.get(task)
            if hit is not None:
                return hit.to_dict()
            claim = claims.try_acquire(cache.root, key, lease=lease, owner=owner)
            if claim is not None or time.monotonic() > deadline:
                break
            time.sleep(CLAIM_POLL)
        try:
            # run_task re-checks the cache first: the claim holder we
            # outwaited may have finished between our poll and our link
            record = run_task(task, keep_result=False, cache=cache, verify=verify)
        finally:
            if claim is not None:
                claim.release()
        return record.to_dict()
    except Exception as exc:  # noqa: BLE001 - shipped across the pipe
        return {"error": str(exc), "error_type": type(exc).__name__}


def _child_main(
    conn,
    cache_dir: str,
    verify: bool,
    lease: float,
) -> None:
    """Worker-child loop: payload dict in, record dict out, until EOF."""
    try:  # the parent's Ctrl-C must not kill workers mid-synthesis
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    parent = os.getppid()
    cache = ResultCache(cache_dir)
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
        task = SynthesisTask.from_dict(payload["task"])
        outcome = run_claimed_task(
            task,
            cache,
            verify=verify,
            owner=payload.get("owner", f"pid-{os.getpid()}"),
            lease=lease,
        )
        try:
            conn.send(outcome)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            return


class ProcessWorker:
    """One synthesis child process and the pipe the parent drives it by."""

    def __init__(
        self,
        cache_dir: str,
        *,
        verify: bool = True,
        lease: float = claims.DEFAULT_LEASE,
        name: str = "repro-serve-worker",
    ) -> None:
        self.cache_dir = str(cache_dir)
        self.verify = verify
        self.lease = lease
        self.name = name
        ctx = _context()
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_child_main,
            args=(child_conn, self.cache_dir, verify, lease),
            name=name,
            daemon=True,
        )
        self._process.start()
        # the parent's copy of the child end must close, or a dead child
        # would never surface as EOF on our recv
        child_conn.close()

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    @property
    def connection(self):
        """The parent's pipe end — for callers multiplexing many workers.

        The portfolio executor hands these to
        :func:`multiprocessing.connection.wait` so one thread can collect
        whichever contender finishes first.
        """
        return self._conn

    def run(self, task: SynthesisTask, *, owner: str = "") -> Dict[str, Any]:
        """Ship one task to the child; block for its record dict.

        Raises :class:`WorkerCrash` if the child dies before answering.
        """
        self.submit(task, owner=owner)
        try:
            return self._conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
            self._process.join(timeout=5.0)
            raise WorkerCrash(self._process.pid, self._process.exitcode) from None

    def submit(self, task: SynthesisTask, *, owner: str = "") -> None:
        """Non-blocking half of :meth:`run`: ship the payload and return.

        The answer arrives on :attr:`connection` whenever the child
        finishes; :class:`WorkerCrash` is raised if the pipe is already
        dead at send time.
        """
        try:
            self._conn.send({"task": task.to_dict(), "owner": owner})
        except (BrokenPipeError, ConnectionResetError, OSError):
            self._process.join(timeout=5.0)
            raise WorkerCrash(self._process.pid, self._process.exitcode) from None

    def crash_outcome(self) -> Dict[str, Any]:
        """The ``{"error", "error_type"}`` dict for this child's death.

        Shaped exactly like a :func:`run_claimed_task` execution error so
        a crashed race contender flows through the same outcome channel
        as an infeasible one.
        """
        self._process.join(timeout=5.0)
        crash = WorkerCrash(self._process.pid, self._process.exitcode)
        return {"error": str(crash), "error_type": type(crash).__name__}

    def kill(self, timeout: float = 2.0) -> None:
        """Hard-stop a mid-job child (portfolio loser cancellation).

        Unlike :meth:`stop`, this does not wait for the current job: the
        child gets SIGTERM (then SIGKILL) immediately, because a race
        loser's result is no longer wanted.
        """
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout)
        if self._process.is_alive():  # pragma: no cover - SIGTERM ignored
            self._process.kill()
            self._process.join(timeout)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful stop: sentinel, join, then terminate as a last resort."""
        try:
            self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout)
        if self._process.is_alive():  # pragma: no cover - wedged child
            self._process.terminate()
            self._process.join(timeout)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
