"""Execution seams for portfolio races.

The :class:`~repro.portfolio.runner.PortfolioRunner` never talks to
processes, threads or clocks directly — it drives a :class:`RaceExecutor`
(launch / poll / cancel) and an injectable monotonic clock.  Three
executors implement the seam:

* :class:`InlineExecutor` — production, for races without a deadline:
  contenders run one at a time, in canonical order, in the caller's own
  process.  The canonical rule makes the answer independent of timing,
  so nothing is gained by running them side by side, and a contender
  after the first certified one never runs at all.
* :class:`ProcessExecutor` — production, for ``deadline_s`` races: one
  :class:`~repro.exec.ProcessWorker` child per contender, multiplexed
  with :func:`multiprocessing.connection.wait`, losers killed mid-job —
  which is what makes the deadline a bound.
* :class:`ScriptedExecutor` — the test seam: completions, crashes and
  clock advances replay from a script, so every race ordering — A-wins,
  B-wins, ties, deadline expiry mid-flight, crashed contenders — is
  drivable with zero wall-clock sleeps.

Outcomes use one currency throughout: the record dict a finished
:class:`~repro.api.batch.TaskResult` serializes to, or, for a contender
that raised, ``{"error": str(exc), "error_type": type(exc).__name__}`` —
a crashed child arrives as ``error_type="WorkerCrash"`` exactly like a
serve worker's death.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

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

    The runner launches every contender in canonical order, then polls
    for completions until its decision rule resolves; losers get
    cancelled.  ``poll`` returns the next ``(index, outcome)`` pair, or
    ``None`` when the timeout elapsed (deadline bookkeeping) or the
    executor has nothing left to deliver.
    """

    @abstractmethod
    def launch(self, contender: Contender) -> None:
        """Start (or queue) one contender; never blocks on its synthesis."""

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


def _error_outcome(exc: Exception) -> Dict[str, Any]:
    return {"error": str(exc), "error_type": type(exc).__name__}


class _ContenderExecutor(RaceExecutor):
    """What the production executors share.

    Every contender runs :func:`~repro.api.batch.run_task` with
    ``verify=True`` against ``cache``; ``_live`` maps each launched,
    unfinished contender's index to its state (the queued contender, or
    its worker).
    """

    def __init__(self, cache=None) -> None:
        self.cache = cache
        self._live: Dict[int, Any] = {}


class InlineExecutor(_ContenderExecutor):
    """The deadline-less race executor: contenders run in this process, in order.

    :meth:`launch` only queues a contender; each :meth:`poll` runs the
    lowest-index live one against the caller's own cache object and
    returns the same record or error dict a forked child would.  A
    cancelled contender never runs.  Nothing can interrupt a running
    contender, and a hard crash of one (``os._exit``, a segfault) takes
    down the calling process — which is why deadline races use
    :class:`ProcessExecutor` instead.
    """

    def launch(self, contender: Contender) -> None:
        self._live[contender.index] = contender

    def poll(self, timeout: Optional[float] = None) -> Optional[Completion]:
        from ..api.batch import run_task  # avoid a cycle

        if not self._live:
            return None
        contender = self._live.pop(min(self._live))
        try:
            outcome = run_task(
                contender.task, keep_result=False, cache=self.cache, verify=True
            ).to_dict()
        except Exception as exc:  # noqa: BLE001 - a contender's error is its outcome
            outcome = _error_outcome(exc)
        return (contender.index, outcome)

    def cancel(self, contender: Contender) -> None:
        self._live.pop(contender.index, None)


class ProcessExecutor(_ContenderExecutor):
    """The deadline race executor: one fresh :class:`~repro.exec.ProcessWorker` per contender.

    Each child runs :func:`~repro.api.batch._run_task_payload`, against
    the caller's cache directory when that cache writes (see
    :func:`~repro.api.batch.worker_payload`).  :meth:`poll` returns
    whichever contender answers first; a child that dies mid-job is a
    ``WorkerCrash``-typed outcome.
    :meth:`cancel` kills the loser's child outright, which is what makes
    a deadline a bound on every path.
    """

    def launch(self, contender: Contender) -> None:
        from ..api.batch import _run_task_payload, worker_payload
        from ..exec import ProcessWorker, WorkerCrash

        worker = ProcessWorker(_run_task_payload, name=f"repro-portfolio-{contender.label}")
        try:
            worker.submit(worker_payload(contender.task, self.cache, verify=True))
        except WorkerCrash:
            pass  # the dead pipe answers the next poll as a crash
        self._live[contender.index] = worker

    def poll(self, timeout: Optional[float] = None) -> Optional[Completion]:
        from multiprocessing.connection import wait

        if not self._live:
            return None
        by_conn = {worker.connection: index for index, worker in self._live.items()}
        ready = wait(list(by_conn), timeout)
        if not ready:
            return None
        index = by_conn[ready[0]]
        worker = self._live.pop(index)
        try:
            outcome = worker.receive()
        except Exception as exc:  # noqa: BLE001 - a WorkerCrash or the child's error, as an outcome
            outcome = _error_outcome(exc)
        else:
            worker.stop(timeout=0.2)
        return (index, outcome)

    def cancel(self, contender: Contender) -> None:
        worker = self._live.pop(contender.index, None)
        if worker is not None:
            worker.kill()

    def close(self) -> None:
        for worker in self._live.values():
            worker.kill()
        self._live.clear()


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


def default_executor(cache=None, deadline_s: Optional[float] = None) -> RaceExecutor:
    """The production executor for one race.

    A race without a deadline gets an :class:`InlineExecutor`: its
    answer does not depend on timing, so it runs in the caller's process.
    A ``deadline_s`` race gets a :class:`ProcessExecutor`, whose children
    can be killed when the deadline expires.
    """
    if deadline_s is None:
        return InlineExecutor(cache)
    return ProcessExecutor(cache)
