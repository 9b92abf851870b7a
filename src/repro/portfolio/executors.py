"""Execution seams for portfolio races.

The :class:`~repro.portfolio.runner.PortfolioRunner` never talks to
processes, threads or clocks directly — it drives a :class:`RaceExecutor`
(launch / poll / cancel) and an injectable monotonic clock.  Three
executors implement the seam:

* :class:`ProcessExecutor` — the real one: one
  :class:`~repro.serve.workers.ProcessWorker` child per contender,
  multiplexed with :func:`multiprocessing.connection.wait`, losers
  killed mid-job.  The default whenever a readable+writable cache
  directory is available and the current process may fork children.
* :class:`InlineExecutor` — sequential in-process execution, one
  contender per :meth:`poll` in launch order.  Deterministic and
  sleep-free; the fallback inside daemonic serve workers (which may not
  spawn children) and for cacheless calls.
* :class:`ScriptedExecutor` — the test seam: completions, crashes and
  clock advances replay from a script, so every race ordering — A-wins,
  B-wins, ties, deadline expiry mid-flight, crashed contenders — is
  drivable with zero wall-clock sleeps.

Outcomes use one currency throughout: the record dict a finished
:class:`~repro.api.batch.TaskResult` serializes to, or the
``{"error": …, "error_type": …}`` dict of
:func:`~repro.serve.workers.run_claimed_task` — a crashed child arrives
as ``error_type="WorkerCrash"`` exactly like a serve worker's death.
"""

from __future__ import annotations

import multiprocessing
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api.batch import run_task
from ..api.task import SynthesisTask

__all__ = [
    "Contender",
    "InlineExecutor",
    "ManualClock",
    "ProcessExecutor",
    "RaceExecutor",
    "ScriptedExecutor",
    "default_executor",
]

#: One delivered completion: (contender index, outcome dict).
Completion = Tuple[int, Dict[str, Any]]


@dataclass(frozen=True)
class Contender:
    """One entrant of a race: canonical index, pair label, concrete task."""

    index: int
    label: str
    scheduler: str
    binder: str
    task: SynthesisTask


class RaceExecutor(ABC):
    """The injectable execution seam of a portfolio race.

    The runner launches every contender at once, then polls
    for completions until its decision rule resolves; losers get
    cancelled.  ``poll`` returns the next ``(index, outcome)`` pair, or
    ``None`` when the timeout elapsed (deadline bookkeeping) or the
    executor has nothing left to deliver.
    """

    @abstractmethod
    def launch(self, contender: Contender) -> None:
        """Start one contender (non-blocking)."""

    @abstractmethod
    def poll(self, timeout: Optional[float] = None) -> Optional[Completion]:
        """The next completion, or ``None`` on timeout / exhaustion."""

    @abstractmethod
    def cancel(self, contender: Contender) -> None:
        """Stop a loser; its completion must never be delivered."""

    def close(self) -> None:
        """Release resources (kill remaining children, drop queues)."""


class ManualClock:
    """A hand-advanced monotonic clock for deterministic deadline tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        """Move time forward (never backward)."""
        if seconds < 0:
            raise ValueError(f"a monotonic clock cannot go back {seconds}s")
        self.now += float(seconds)


class InlineExecutor(RaceExecutor):
    """Sequential in-process executor: one contender per poll, launch order.

    Each :meth:`poll` synthesizes the next launched-and-not-cancelled
    contender via :func:`~repro.api.batch.run_task` with the caller-side
    certificate gate (``verify=True``) and returns its record dict;
    exceptions become ``{"error", "error_type"}`` outcomes.  Cancelled
    contenders are simply never run — inline cancellation is free.
    """

    def __init__(self, cache=None) -> None:
        self._cache = cache
        self._queue: List[Contender] = []
        self._cancelled: set = set()
        #: Pair labels actually synthesized, in order (test/bench hook).
        self.ran: List[str] = []
        #: Pair labels cancelled before running (test/bench hook).
        self.cancelled: List[str] = []

    def launch(self, contender: Contender) -> None:
        self._queue.append(contender)

    def cancel(self, contender: Contender) -> None:
        self._cancelled.add(contender.index)
        self.cancelled.append(contender.label)

    def poll(self, timeout: Optional[float] = None) -> Optional[Completion]:
        while self._queue:
            contender = self._queue.pop(0)
            if contender.index in self._cancelled:
                continue
            self.ran.append(contender.label)
            try:
                record = run_task(
                    contender.task, keep_result=False, cache=self._cache, verify=True
                )
                return (contender.index, record.to_dict())
            except Exception as exc:  # noqa: BLE001 - outcomes, not raises
                return (
                    contender.index,
                    {"error": str(exc), "error_type": type(exc).__name__},
                )
        return None


class ProcessExecutor(RaceExecutor):
    """The real race executor: one worker child per contender.

    Contenders run in :class:`~repro.serve.workers.ProcessWorker`
    children against a shared cache directory (the store-level claim
    protocol keeps concurrent races from synthesizing one address
    twice); :meth:`poll` multiplexes every live pipe through
    :func:`multiprocessing.connection.wait` and returns whichever
    contender answers first.  A child that dies mid-job surfaces as a
    ``WorkerCrash``-typed outcome; :meth:`cancel` kills the loser's
    child outright — its result is no longer wanted.
    """

    def __init__(
        self,
        cache_dir: str,
        *,
        verify: bool = True,
        owner: str = "portfolio",
    ) -> None:
        self.cache_dir = str(cache_dir)
        self.verify = verify
        self.owner = owner
        self._active: Dict[int, Any] = {}
        self._ready: List[Completion] = []

    def launch(self, contender: Contender) -> None:
        from ..serve.workers import ProcessWorker, WorkerCrash

        worker = ProcessWorker(
            self.cache_dir,
            verify=self.verify,
            name=f"repro-portfolio-{contender.label}",
        )
        try:
            worker.submit(contender.task, owner=f"{self.owner}:{contender.label}")
        except WorkerCrash:
            self._ready.append((contender.index, worker.crash_outcome()))
            return
        self._active[contender.index] = worker

    def poll(self, timeout: Optional[float] = None) -> Optional[Completion]:
        from multiprocessing.connection import wait

        if self._ready:
            return self._ready.pop(0)
        if not self._active:
            return None
        by_conn = {worker.connection: index for index, worker in self._active.items()}
        ready = wait(list(by_conn), timeout)
        if not ready:
            return None
        conn = ready[0]
        index = by_conn[conn]
        worker = self._active.pop(index)
        try:
            outcome = conn.recv()
        except (EOFError, OSError):
            outcome = worker.crash_outcome()
        else:
            worker.stop(timeout=0.2)
        return (index, outcome)

    def cancel(self, contender: Contender) -> None:
        worker = self._active.pop(contender.index, None)
        if worker is not None:
            worker.kill()

    def close(self) -> None:
        for worker in self._active.values():
            worker.kill()
        self._active.clear()
        self._ready.clear()


class ScriptedExecutor(RaceExecutor):
    """Deterministic replay executor — the race-test seam.

    The script is a sequence of events, consumed by :meth:`poll`:

    * ``("complete", label, outcome_dict)`` — deliver an outcome for a
      launched contender,
    * ``("crash", label)`` — deliver a ``WorkerCrash``-typed outcome,
    * ``("advance", seconds)`` — advance the :class:`ManualClock`; when
      the advances consumed within one poll reach its ``timeout``, the
      poll returns ``None`` (exactly how a real deadline expiry looks).

    Events for cancelled contenders are discarded (a killed child never
    answers); events for contenders not yet launched stay in the script
    until their launch.  ``launched`` / ``cancelled`` / ``delivered``
    record the orders tests assert on.  No sleeps anywhere.
    """

    def __init__(
        self,
        script: Sequence[Tuple[Any, ...]],
        clock: Optional[ManualClock] = None,
    ) -> None:
        self._script: List[Tuple[Any, ...]] = list(script)
        self.clock = clock if clock is not None else ManualClock()
        self._by_label: Dict[str, Contender] = {}
        self._cancelled: set = set()
        self.launched: List[str] = []
        self.cancelled: List[str] = []
        self.delivered: List[str] = []

    def launch(self, contender: Contender) -> None:
        self._by_label[contender.label] = contender
        self.launched.append(contender.label)

    def cancel(self, contender: Contender) -> None:
        self._cancelled.add(contender.label)
        self.cancelled.append(contender.label)

    def poll(self, timeout: Optional[float] = None) -> Optional[Completion]:
        spent = 0.0
        index = 0
        while index < len(self._script):
            event = self._script[index]
            kind = event[0]
            if kind == "advance":
                del self._script[index]
                self.clock.advance(float(event[1]))
                spent += float(event[1])
                if timeout is not None and spent >= timeout:
                    return None
                continue
            if kind in ("complete", "crash"):
                label = event[1]
                if label in self._cancelled:
                    del self._script[index]  # a killed loser never answers
                    continue
                contender = self._by_label.get(label)
                if contender is None:  # not launched yet; maybe deliverable later
                    index += 1
                    continue
                del self._script[index]
                if kind == "crash":
                    outcome: Dict[str, Any] = {
                        "error": f"worker process for {label} died (scripted crash)",
                        "error_type": "WorkerCrash",
                    }
                else:
                    outcome = event[2]
                self.delivered.append(label)
                return (contender.index, outcome)
            raise ValueError(f"unknown scripted event {event!r}")
        return None


def default_executor(cache=None) -> RaceExecutor:
    """The production executor choice for one race.

    Child processes need a shared cache directory to report through and
    are forbidden inside daemonic processes (a serve worker child), so:
    a readable *and* writable on-disk cache in a non-daemonic process
    gets the :class:`ProcessExecutor`; everything else falls back to the
    deterministic :class:`InlineExecutor`.
    """
    can_fork = not multiprocessing.current_process().daemon
    if (
        cache is not None
        and can_fork
        and getattr(cache, "read", False)
        and getattr(cache, "write", False)
        and getattr(cache, "root", None) is not None
    ):
        return ProcessExecutor(str(cache.root))
    return InlineExecutor(cache)
