"""Persistent, crash-tolerant job queue for the synthesis service.

A :class:`JobQueue` is the serving layer's unit of durability: every
submitted :class:`~repro.api.task.SynthesisTask` becomes a :class:`Job`
with a stable id, and every state transition (submit → start → finish,
or a requeue) is appended to ``jobs.jsonl`` in the queue's state
directory with the same single-``O_APPEND``-write discipline as the
result cache journal — concurrent writers never interleave mid-line and
a torn tail from a killed process is skipped on replay.  A job the
service answers at admission (a cache hit) skips ``start``: its
``submit`` and ``finish`` lines are appended together in one write.

Reopening a state directory replays the event log: finished jobs come
back with their records, pending jobs re-enter the queue in submission
order, and jobs that were *running* when the process died are requeued
(their work, if it completed far enough to reach the result cache, is
answered from the cache in ~0.2 ms on the re-run).  That replay is what
lets ``repro serve`` restart under load without losing or duplicating
accepted work.

Dequeue order is *priority, then FIFO*: every submission carries an
integer priority (default 0, higher first), ready jobs are taken in
``(-priority, submission order)`` order, and a requeued job re-enters
ahead of later submissions of its own priority class.  The queue can be
depth-bounded (``max_depth``): when the backlog of pending jobs is at
the bound, :meth:`submit` raises :class:`QueueFullError` carrying a
``retry_after`` hint — what the HTTP front turns into ``429`` +
``Retry-After`` backpressure instead of an unbounded in-memory backlog.

The queue does no deduplication of its own: content-identical jobs are
single-flighted where every synthesis is, by the store claim
:func:`~repro.api.batch.run_task` takes (:mod:`repro.store.claims`).
"""

from __future__ import annotations

import bisect
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..api.task import SynthesisTask, TaskError

#: Event-log file name inside a queue state directory.
LOG_NAME = "jobs.jsonl"

#: The job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

STATES = (PENDING, RUNNING, DONE, FAILED)


class QueueError(RuntimeError):
    """A job-queue usage error (unknown id, illegal transition, …)."""


class QueueFullError(QueueError):
    """The queue's pending backlog is at ``max_depth``.

    Attributes:
        retry_after: Suggested seconds before retrying — what the HTTP
            front sends as the ``Retry-After`` header of its ``429``.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class Job:
    """One unit of accepted work: a task plus its serving lifecycle.

    Attributes:
        id: Stable, unique job id (``job-<seq>-<nonce>``) handed back to
            the submitting client and used in ``GET /jobs/<id>``.
        task: The task spec to synthesize.
        key: The task's content address
            (:meth:`~repro.api.task.SynthesisTask.cache_key`), which is
            also the ``GET /results/<key>`` address of the outcome.
        state: ``pending`` → ``running`` → ``done`` | ``failed``.
        submitted_at / started_at / finished_at: Epoch timestamps of the
            transitions (``None`` until they happen).
        record: The finished :class:`~repro.api.batch.TaskResult` in
            plain-dict form (scalar metrics only), for ``done`` jobs.
        error / error_type: Failure details for ``failed`` jobs (e.g. a
            structural ``CertificateError`` the verify gate rejected).
        requeues: How many times the job re-entered the queue after a
            crash or drain found it in flight.
        priority: Dequeue priority (higher first; FIFO within a class).
            A submission attribute, not part of the task's content
            address — the same task at two priorities is still one
            synthesis.
    """

    id: str
    task: SynthesisTask
    key: str
    state: str = PENDING
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    record: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    requeues: int = 0
    priority: int = 0
    #: Monotonic submission sequence number (dequeue tie-breaker).
    seq: int = 0

    @property
    def finished(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in (DONE, FAILED)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form — what ``GET /jobs/<id>`` serves."""
        return {
            "id": self.id,
            "task": self.task.to_dict(),
            "key": self.key,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "record": self.record,
            "error": self.error,
            "error_type": self.error_type,
            "requeues": self.requeues,
            "priority": self.priority,
        }


class JobQueue:
    """A FIFO queue of :class:`Job` records with an append-only event log.

    Args:
        state_dir: Directory holding ``jobs.jsonl``.  ``None`` keeps the
            queue purely in memory (tests, throwaway servers) — identical
            semantics, no durability.
        max_depth: Bound on the *pending* backlog.  ``None`` (default)
            is unbounded; with a bound, :meth:`submit` /
            :meth:`submit_many` raise :class:`QueueFullError` instead of
            growing the backlog — the service's backpressure signal.

    All methods are thread-safe; :meth:`take` blocks on a condition
    variable so idle workers cost nothing.  Pending jobs are ordered by
    ``(-priority, submission sequence)``.
    """

    def __init__(
        self,
        state_dir: Optional[Union[str, Path]] = None,
        *,
        max_depth: Optional[int] = None,
    ) -> None:
        self.state_dir = Path(state_dir).expanduser() if state_dir is not None else None
        self.max_depth = int(max_depth) if max_depth is not None else None
        if self.max_depth is not None and self.max_depth < 1:
            raise QueueError(f"max_depth must be >= 1, got {max_depth}")
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        #: Sorted (-priority, seq, job_id) triples; index 0 dequeues next.
        self._pending: List[tuple] = []
        self._seq = 0
        self._closed = False
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._replay()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @property
    def log_path(self) -> Optional[Path]:
        return self.state_dir / LOG_NAME if self.state_dir is not None else None

    def _append(self, *events: Dict[str, Any]) -> None:
        if self.state_dir is None:
            return
        text = "".join(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
            for event in events
        )
        # one unbuffered write to an O_APPEND fd, exactly like the result
        # cache journal: concurrent workers never interleave mid-line, and
        # events appended together land together or as a torn tail
        fd = os.open(self.log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, text.encode("utf-8"))
        finally:
            os.close(fd)

    def _replay(self) -> None:
        """Rebuild in-memory state from the event log (crash-tolerant).

        Jobs left ``running`` by a dead process are requeued; malformed
        lines (a torn tail) are skipped.
        """
        if not self.log_path.exists():
            return
        order: List[str] = []
        with open(self.log_path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                    kind = event["event"]
                    job_id = event["id"]
                except (ValueError, KeyError, TypeError):
                    continue
                try:
                    if kind == "submit":
                        job = Job(
                            id=job_id,
                            task=SynthesisTask.from_dict(event["task"]),
                            key=event["key"],
                            submitted_at=event.get("ts", 0.0),
                            priority=int(event.get("priority", 0)),
                            seq=len(order) + 1,
                        )
                        self._jobs[job_id] = job
                        order.append(job_id)
                    elif job_id in self._jobs:
                        job = self._jobs[job_id]
                        if kind == "start":
                            job.state = RUNNING
                            job.started_at = event.get("ts")
                        elif kind == "finish":
                            job.state = event.get("state", DONE)
                            job.finished_at = event.get("ts")
                            if job.started_at is None:
                                # answered at admission: no start event
                                job.started_at = job.submitted_at
                            job.record = event.get("record")
                            job.error = event.get("error")
                            job.error_type = event.get("error_type")
                        elif kind == "requeue":
                            job.state = PENDING
                            job.started_at = None
                            job.requeues += 1
                except (TaskError, ValueError, KeyError, TypeError):
                    continue
        for job_id in order:
            job = self._jobs[job_id]
            if job.state == RUNNING:
                # the previous process died mid-job: requeue it
                job.state = PENDING
                job.started_at = None
                job.requeues += 1
                self._append({"event": "requeue", "id": job_id, "ts": time.time()})
            if job.state == PENDING:
                bisect.insort(self._pending, (-job.priority, job.seq, job.id))
        self._seq = len(order)

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def submit(self, task: SynthesisTask, *, priority: int = 0) -> Job:
        """Accept a task: assign an id, persist the submit event, enqueue.

        Raises :class:`QueueFullError` when a ``max_depth`` bound is set
        and the pending backlog is at it.
        """
        return self.submit_many([task], priority=priority)[0]

    def submit_many(
        self,
        tasks: Iterable[SynthesisTask],
        *,
        priority: int = 0,
        records: Optional[Sequence[Optional[Dict[str, Any]]]] = None,
    ) -> List[Job]:
        """Accept a batch atomically: all admitted, or ``QueueFullError``.

        Capacity is checked for the whole batch under the queue lock —
        a client is never left with half its batch admitted and the
        other half bounced, which would make the 429 retry re-submit
        (and re-account) the admitted half.

        ``records``, aligned with ``tasks``, answers tasks at admission:
        a non-``None`` entry is that task's finished record (the
        service's cache hit).  Such a job is admitted already ``done``
        with ``started_at == finished_at == submitted_at``; it never
        takes a pending slot, so only unanswered tasks count against
        ``max_depth``.  Its ``submit`` and ``finish`` events go to the
        log in one write (no ``start`` event): a crash leaves both lines
        or a torn tail, which replay treats as a pending job.
        """
        tasks = list(tasks)
        if records is None:
            records = [None] * len(tasks)
        elif len(records) != len(tasks):
            raise QueueError(
                f"{len(records)} admission records for {len(tasks)} tasks"
            )
        waiting = sum(1 for record in records if record is None)
        with self._not_empty:
            if self._closed:
                raise QueueError("queue is closed to new submissions")
            if (
                self.max_depth is not None
                and len(self._pending) + waiting > self.max_depth
            ):
                raise QueueFullError(
                    f"queue is full ({len(self._pending)} pending, "
                    f"max_depth={self.max_depth}); retry later",
                    retry_after=self._retry_after_hint(),
                )
            jobs = []
            for task, record in zip(tasks, records):
                self._seq += 1
                job = Job(
                    id=f"job-{self._seq:06d}-{uuid.uuid4().hex[:8]}",
                    task=task,
                    key=task.cache_key(),
                    submitted_at=time.time(),
                    priority=int(priority),
                    seq=self._seq,
                )
                submitted = {
                    "event": "submit",
                    "id": job.id,
                    "ts": job.submitted_at,
                    "task": task.to_dict(),
                    "key": job.key,
                    "priority": job.priority,
                }
                if record is None:
                    bisect.insort(self._pending, (-job.priority, job.seq, job.id))
                    self._append(submitted)
                else:
                    job.started_at = job.finished_at = job.submitted_at
                    job.record = record
                    job.state = DONE
                    self._append(submitted, self._finish_event(job))
                self._jobs[job.id] = job
                jobs.append(job)
            self._not_empty.notify(waiting)
        return jobs

    def _retry_after_hint(self) -> float:
        """Seconds a bounced client should wait (caller holds the lock).

        Deliberately crude — half a second per pending job, clamped to
        [1, 30] — because the real signal is *when the client retries
        and succeeds*; the hint only spreads the retries out.
        """
        return min(30.0, max(1.0, 0.5 * len(self._pending)))

    def close(self) -> None:
        """Refuse further submissions and wake blocked :meth:`take` calls."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` refused further submissions."""
        with self._lock:
            return self._closed

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def take(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Dequeue the highest-priority oldest pending job, mark it running.

        Blocks up to ``timeout`` seconds (forever when ``None``) and
        returns ``None`` on timeout or when the queue was closed while
        empty — the worker-loop exit signal.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while not self._pending:
                if self._closed:
                    return None
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._not_empty.wait(remaining)
            job = self._jobs[self._pending.pop(0)[2]]
            job.state = RUNNING
            job.started_at = time.time()
            self._append({"event": "start", "id": job.id, "ts": job.started_at})
            return job

    def finish(
        self,
        job: Job,
        *,
        record: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
        error_type: Optional[str] = None,
    ) -> None:
        """Move a running job to ``done`` (with its record) or ``failed``."""
        with self._lock:
            if job.state != RUNNING:
                raise QueueError(f"cannot finish job {job.id} in state {job.state!r}")
            # publish the payload before the state flip: HTTP threads read
            # Job fields without this lock, and a client observing
            # state == "done" must never see record still unset
            job.finished_at = time.time()
            job.record = record
            job.error = error
            job.error_type = error_type
            job.state = FAILED if error is not None else DONE
            self._append(self._finish_event(job))

    @staticmethod
    def _finish_event(job: Job) -> Dict[str, Any]:
        return {
            "event": "finish",
            "id": job.id,
            "ts": job.finished_at,
            "state": job.state,
            "record": job.record,
            "error": job.error,
            "error_type": job.error_type,
        }

    def requeue(self, job: Job) -> None:
        """Put a running job back into the queue (drain/crash recovery).

        The job keeps its original submission sequence, so it re-enters
        *ahead* of anything submitted after it within its own priority
        class — a crash costs latency, never its place in line.
        """
        with self._not_empty:
            if job.state != RUNNING:
                raise QueueError(f"cannot requeue job {job.id} in state {job.state!r}")
            job.state = PENDING
            job.started_at = None
            job.requeues += 1
            bisect.insort(self._pending, (-job.priority, job.seq, job.id))
            self._append({"event": "requeue", "id": job.id, "ts": time.time()})
            self._not_empty.notify()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Optional[Job]:
        """The job with this id, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.id)

    @property
    def depth(self) -> int:
        """Jobs waiting to be taken (the ``/stats`` queue-depth number)."""
        with self._lock:
            return len(self._pending)

    def counts(self) -> Dict[str, int]:
        """Job counts by state (``pending``/``running``/``done``/``failed``)."""
        with self._lock:
            counts = {state: 0 for state in STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
