"""Execution seams for portfolio races.

The :class:`~repro.portfolio.runner.PortfolioRunner` never talks to
processes, threads or clocks directly — it drives a :class:`RaceExecutor`
(launch / poll / cancel) and an injectable monotonic clock.  Two
executors implement the seam:

* :class:`ProcessExecutor` — the production one: one
  :class:`~repro.exec.ProcessWorker` child per contender, multiplexed
  with :func:`multiprocessing.connection.wait`, losers killed mid-job.
* :class:`ScriptedExecutor` — the test seam: completions, crashes and
  clock advances replay from a script, so every race ordering — A-wins,
  B-wins, ties, deadline expiry mid-flight, crashed contenders — is
  drivable with zero wall-clock sleeps.

Outcomes use one currency throughout: the record dict a finished
:class:`~repro.api.batch.TaskResult` serializes to, or the
``{"error": …, "error_type": …}`` dict of
:func:`~repro.exec.run_claimed_task` — a crashed child arrives as
``error_type="WorkerCrash"`` exactly like a serve worker's death.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api.task import SynthesisTask

__all__ = [
    "Contender",
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


class ProcessExecutor(RaceExecutor):
    """The race executor: one fresh :class:`~repro.exec.ProcessWorker` per contender.

    Contenders run :func:`~repro.exec.run_claimed_task` against the
    caller's cache directory, opened with the caller's read/write flags
    (or none).  :meth:`poll` returns whichever contender answers first; a
    child that dies mid-job is a ``WorkerCrash``-typed outcome.
    :meth:`cancel` kills the loser's child outright, which is what makes
    a deadline a bound on every path.
    """

    def __init__(self, cache=None, *, verify: bool = True, owner: str = "portfolio") -> None:
        self.cache = cache
        self.verify = verify
        self.owner = owner
        self._active: Dict[int, Any] = {}

    def launch(self, contender: Contender) -> None:
        from ..exec import ClaimedTaskEntry, ProcessWorker, WorkerCrash

        root = getattr(self.cache, "root", None)
        entry = ClaimedTaskEntry(
            None if root is None else str(root),
            read=getattr(self.cache, "read", False),
            write=getattr(self.cache, "write", False),
            verify=self.verify,
        )
        worker = ProcessWorker(entry, name=f"repro-portfolio-{contender.label}")
        try:
            worker.submit(
                {"task": contender.task.to_dict(), "owner": f"{self.owner}:{contender.label}"}
            )
        except WorkerCrash:
            pass  # the dead pipe answers the next poll as a crash
        self._active[contender.index] = worker

    def poll(self, timeout: Optional[float] = None) -> Optional[Completion]:
        from multiprocessing.connection import wait

        if not self._active:
            return None
        by_conn = {worker.connection: index for index, worker in self._active.items()}
        ready = wait(list(by_conn), timeout)
        if not ready:
            return None
        index = by_conn[ready[0]]
        worker = self._active.pop(index)
        try:
            outcome = worker.receive()
        except Exception as exc:  # noqa: BLE001 - a WorkerCrash or the child's error, as an outcome
            outcome = {"error": str(exc), "error_type": type(exc).__name__}
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
    """The production executor for one race: a :class:`ProcessExecutor`."""
    return ProcessExecutor(cache)
