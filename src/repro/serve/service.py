"""The synthesis service: a process-pool worker tier over queue + cache.

:class:`SynthesisService` is the long-lived engine behind ``repro
serve``: it accepts :class:`~repro.api.task.SynthesisTask` submissions
into a persistent :class:`~repro.serve.queue.JobQueue`, and a pool of
workers executes them through the exact same
:func:`~repro.api.batch.run_task` path the CLI and the batch API use,
against one shared :class:`~repro.explore.cache.ResultCache`.

Each worker slot is a parent-side dispatch thread that hands its job
to one :class:`~repro.exec.WorkerPool` of long-lived child processes
doing the CPU-bound synthesis — N workers really use N cores instead of
serializing on the GIL.  The parent keeps all authority: the queue and
the counters.  A child that dies mid-job
(SIGKILL, OOM) is detected on its pipe, the job is requeued (up to
``max_requeues``, then failed as a ``WorkerCrash`` record) and the pool
respawns the child.

The parent answers every cache hit it can see itself, before any IPC:
at admission (a hit is admitted already ``done`` and never takes a
queue slot, a dispatch thread or a child) and again at dequeue (a
replayed job whose work reached the cache before a crash, or a
duplicate whose twin finished meanwhile).  Children only ever receive
jobs the parent saw as misses; their own lookup stays, because the
store-level claim protocol needs it.  Whichever side answers, a
finished job counts exactly one cache lookup in ``/stats``.

Three properties fall out of building on the existing stack:

* **Single-synthesis semantics, cross-process.**  Children run jobs
  through :func:`~repro.api.batch.run_task`, which synthesizes a miss
  under the store-level claim on its address
  (:mod:`repro.store.claims`) and polls the cache while someone else
  holds it — a sibling child of this service, another service, or a
  batch run on the same cache directory.  Identical requests — one
  client or many, one service or many — synthesize exactly once; every
  other copy returns as a warm cache hit, never duplicate work.

* **Certified results only.**  Workers run with ``verify=True``, the
  same caller-side assertion as ``run_task(verify=True)``: a feasible
  result that fails the independent certificate checker marks the job
  ``failed`` (``error_type="CertificateError"``) and never enters the
  cache, so ``GET /results/<key>`` can only ever serve records that
  passed the gate.

* **Bounded backlog.**  With ``max_queue_depth`` set, submissions
  beyond the bound raise :class:`~repro.serve.queue.QueueFullError`
  (HTTP: ``429`` + ``Retry-After``) instead of growing memory without
  limit, and per-job priorities order the backlog that is admitted.

Shutdown is graceful by construction: ``shutdown(drain=True)`` stops
accepting work and waits for the queue to empty; ``drain=False`` stops
after the jobs currently in flight (synthesis is not interruptible
mid-run) and leaves the rest pending in the persistent queue, where the
next boot's replay picks them up.  A process that dies mid-job instead
of shutting down is covered by the queue's requeue-on-replay, and its
claims die with it: the kernel drops the lock, so there is nothing to
sweep at boot.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from ..api.batch import BatchSummary, TaskResult, _run_task_payload, worker_payload
from ..api.task import SynthesisTask
from ..exec import WorkerCrash, WorkerPool
from ..explore.cache import ResultCache
from .queue import Job, JobQueue, QueueError, QueueFullError


class ServiceError(RuntimeError):
    """A service-level usage error (submitting to a stopped service, …)."""


#: Zero state of one per-strategy counter row in ``/stats``.
_STRATEGY_ZERO = {
    "jobs": 0,
    "cache_hits": 0,
    "computed": 0,
    "failed": 0,
    "computed_seconds": 0.0,
    # races this concrete strategy won (counted on its own row, so the
    # ``portfolio`` row's jobs and the winners' portfolio_wins reconcile)
    "portfolio_wins": 0,
}


class SynthesisService:
    """A concurrent synthesis executor: queue in, certified records out.

    Args:
        state_dir: Directory for the persistent queue log and (unless
            ``cache`` is given) the shared result cache.  ``None`` keeps
            everything in memory / a private temp cache — fine for tests
            and examples, no crash tolerance.
        cache: A :class:`~repro.explore.cache.ResultCache` to share; by
            default one is opened at ``<state_dir>/cache``.
        workers: Worker slots executing jobs concurrently, each paired
            with a child process doing the CPU-bound synthesis.
        max_queue_depth: Bound on the pending backlog; beyond it,
            submissions raise :class:`~repro.serve.queue.QueueFullError`
            — the HTTP front's ``429 Retry-After`` signal.  ``None`` is
            unbounded.
        max_requeues: How many times a job whose worker child was killed
            mid-run is requeued before it is failed as a
            ``WorkerCrash`` record.

    Workers run every job through the ``run_task(verify=True)`` gate: a
    feasible result they compute is re-certified before it is recorded,
    since a serving process is exactly the place where an uncertified
    result must not leak.

    The service is inert until :meth:`start` is called; use it as a
    context manager to pair start/shutdown.
    """

    def __init__(
        self,
        state_dir: Optional[Union[str, Path]] = None,
        *,
        cache: Optional[ResultCache] = None,
        workers: int = 2,
        max_queue_depth: Optional[int] = None,
        max_requeues: int = 2,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"a service needs at least one worker, got {workers}")
        self.queue = JobQueue(state_dir, max_depth=max_queue_depth)
        self._owns_temp_cache = False
        if cache is None:
            if state_dir is not None:
                cache = ResultCache(Path(state_dir).expanduser() / "cache")
            else:
                import tempfile

                cache = ResultCache(tempfile.mkdtemp(prefix="repro-serve-"))
                self._owns_temp_cache = True
        self.cache = cache
        self.workers = int(workers)
        self.max_requeues = int(max_requeues)
        self.started_at: Optional[float] = None
        self._threads: List[threading.Thread] = []
        self._pool: Optional[WorkerPool] = None
        self._stop = threading.Event()
        self._guard = threading.Lock()
        # the HTTP thread and the dispatch threads all read the parent's
        # cache handle; the store is not safe for concurrent reads
        self._cache_lock = threading.Lock()
        self._strategy_stats: Dict[str, Dict[str, float]] = {}
        self._summary = BatchSummary()
        self._certified_keys: set = set()
        self._worker_crashes = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "SynthesisService":
        """Spawn the worker pool (idempotent)."""
        if self._threads:
            return self
        self.started_at = time.time()
        self._stop.clear()
        self._pool = WorkerPool(self.workers, _run_task_payload, name="repro-serve-child")
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def __enter__(self) -> "SynthesisService":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.shutdown(drain=False)

    def shutdown(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the service gracefully.

        ``drain=True`` refuses new submissions and processes everything
        already accepted before returning; ``drain=False`` additionally
        stops dequeuing — jobs in flight complete (synthesis cannot be
        interrupted mid-run), the rest stay pending in the persistent
        queue for the next boot's replay to requeue.
        """
        self.queue.close()
        if not drain:
            self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        # a timed-out join leaves workers alive: keep their references so
        # running/healthz stay honest and a later start() cannot stack a
        # second pool on the same queue
        self._threads = [t for t in self._threads if t.is_alive()]
        if not self._threads:
            self._stop.set()
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            if self._owns_temp_cache:
                # a private temp cache dies with the service; shared /
                # state-dir caches are durable by design and left alone
                import shutil

                shutil.rmtree(self.cache.root, ignore_errors=True)

    @property
    def running(self) -> bool:
        """True while worker threads are alive."""
        return any(thread.is_alive() for thread in self._threads)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, task: SynthesisTask, *, priority: int = 0) -> Job:
        """Accept one task; returns its :class:`~repro.serve.queue.Job`."""
        return self.submit_many([task], priority=priority)[0]

    def submit_many(
        self,
        tasks: Iterable[SynthesisTask],
        *,
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> List[Job]:
        """Accept a batch atomically, in order; returns the jobs.

        ``deadline_s`` stamps a race budget onto every task *before*
        admission — the deadline is part of a portfolio task's content
        address, so it must be in the spec before the job is keyed.  A
        ``deadline_s`` submission containing non-portfolio tasks raises
        :class:`~repro.api.task.TaskError` (nothing admitted).

        Tasks the cache already answers come back ``done`` at once; only
        the misses are queued, and only they count against
        ``max_queue_depth``.

        A full queue raises :class:`~repro.serve.queue.QueueFullError`
        (backpressure — retryable, nothing admitted); other queue errors
        (closed for shutdown) surface as :class:`ServiceError`.
        """
        if deadline_s is not None:
            from ..portfolio.config import with_deadline  # avoid an import cycle

            tasks = [with_deadline(task, deadline_s) for task in tasks]
        tasks = list(tasks)
        hits = [self._lookup(task) for task in tasks]
        try:
            jobs = self.queue.submit_many(
                tasks,
                priority=priority,
                records=[None if hit is None else hit.to_dict() for hit in hits],
            )
        except QueueFullError:
            raise
        except QueueError as exc:
            raise ServiceError(str(exc)) from exc
        for job, hit in zip(jobs, hits):
            if hit is not None:
                self._note_record(job, hit)
        return jobs

    def _lookup(self, task: SynthesisTask) -> Optional[TaskResult]:
        """The parent's cache hit for ``task``, or ``None`` (uncounted)."""
        task.cache_key()  # hash outside the lock; the key is memoized
        with self._cache_lock:
            return self.cache.peek(task)

    def job(self, job_id: str) -> Optional[Job]:
        """Look up a job by id."""
        return self.queue.get(job_id)

    def result(self, key: str) -> Optional[Dict[str, Any]]:
        """The finished record stored under a content address, or ``None``.

        Serves only records whose certification is provable: infeasible
        records (constraint data, nothing to certify), records whose task
        spec carries ``verify=True`` (the pipeline's own certificate gate
        ran before the result was recorded — and ``verify`` is part of
        the content address, so the spelling cannot lie), and records
        this service computed itself (workers run the
        ``run_task(verify=True)`` gate even for ``verify=False`` tasks).
        A feasible ``verify=False`` record written into a shared cache
        directory by some *other* producer is withheld — its
        certification cannot be established, and this endpoint promises
        certified results only.
        """
        with self._cache_lock:
            record = self.cache.record_for_key(key)
        if record is None:
            return None
        if record.get("feasible"):
            task_spec = record.get("task") or {}
            with self._guard:
                certified = key in self._certified_keys
            if not certified and task_spec.get("verify", True) is not True:
                return None
        return {"key": key, "record": record}

    def wait(self, jobs: Iterable[Job], timeout: float = 60.0) -> List[Job]:
        """Block until every job finishes (or raise on timeout)."""
        deadline = time.monotonic() + timeout
        jobs = list(jobs)
        for job in jobs:
            while not job.finished:
                if time.monotonic() > deadline:
                    raise ServiceError(
                        f"timed out waiting for job {job.id} (state {job.state!r})"
                    )
                time.sleep(0.005)
        return jobs

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.take(timeout=0.1)
            if job is None:
                if self.queue.closed and self.queue.depth == 0:
                    return
                continue
            self._execute_in_child(job)

    def _execute_in_child(self, job: Job) -> None:
        """Run one job on a pool child, surviving its death.

        The parent looks the job up again at dequeue: a duplicate whose
        twin already finished (or a replayed job whose work reached the
        cache before a crash) is answered here, without a child.  A
        child only ever sees a miss; its ``run_task`` takes the
        store-level claim, which is what serializes content-identical
        jobs — of this service or any other process on the same cache
        directory.
        """
        hit = self._lookup(job.task)
        if hit is not None:
            self._note_record(job, hit)
            self.queue.finish(job, record=hit.to_dict())
            return
        try:
            outcome = self._pool.run(worker_payload(job.task, self.cache, verify=True))
        except WorkerCrash as crash:
            with self._guard:
                self._worker_crashes += 1
            if job.requeues < self.max_requeues:
                self.queue.requeue(job)
                return
            message = f"{crash} after {job.requeues} requeue(s)"
            self._note_failure(job, message, "WorkerCrash")
            self.queue.finish(job, error=message, error_type="WorkerCrash")
            return
        except Exception as exc:  # noqa: BLE001 - the child's error fails the job
            # an execution *error* (certificate rejection, genuine bug),
            # not an infeasible record — those come back as data with
            # feasible=False and their own error fields
            self._note_failure(job, str(exc), type(exc).__name__)
            self.queue.finish(job, error=str(exc), error_type=type(exc).__name__)
            return
        self._note_record(job, TaskResult.from_dict(outcome))
        self.queue.finish(job, record=outcome)

    def _note_failure(self, job: Job, message: str, error_type: str) -> None:
        with self._guard:
            self._summary.total += 1
            self._summary.infeasible += 1
            self._summary.computed += 1
            if error_type == "CertificateError":
                self._summary.certificate_errors += 1
            # failed jobs stay visible in per_strategy too, so its
            # "jobs" counts always sum to summary.total
            stats = self._strategy_stats.setdefault(
                job.task.scheduler, dict(_STRATEGY_ZERO)
            )
            stats["jobs"] += 1
            stats["failed"] += 1

    def _note_record(self, job: Job, record: TaskResult) -> None:
        """Fold one finished record into the running counters (O(1)).

        The summary fields follow the exact
        :meth:`~repro.api.batch.BatchSummary.from_records` semantics the
        CLI uses — accumulated at finish time rather than recounted per
        ``/stats`` request, so a long-lived server's monitoring polls
        stay O(1) in the number of jobs ever served.

        It also counts the job's one cache lookup: the parent's lookups
        leave :attr:`ResultCache.stats` alone, and a child's lookup and
        write happen on the child's own cache handle.
        """
        with self._guard:
            if record.cached:
                self.cache.stats.hits += 1
            else:
                self.cache.stats.misses += 1
                self.cache.stats.writes += 1
            self._summary.total += 1
            if record.feasible:
                self._summary.feasible += 1
                if not record.cached:
                    # only a record this service *computed* provably passed
                    # the worker's verify gate; a cache hit is returned
                    # as-is and must not launder a foreign uncertified
                    # record into servability
                    self._certified_keys.add(job.key)
            else:
                self._summary.infeasible += 1
                if record.error_type == "CertificateError":
                    self._summary.certificate_errors += 1
            if record.cached:
                self._summary.cache_hits += 1
            else:
                self._summary.computed += 1
            stats = self._strategy_stats.setdefault(
                job.task.scheduler, dict(_STRATEGY_ZERO)
            )
            stats["jobs"] += 1
            if record.cached:
                stats["cache_hits"] += 1
            else:
                stats["computed"] += 1
                stats["computed_seconds"] += record.elapsed
            if record.winner:
                # a portfolio verdict credits the winning concrete
                # strategy's row, keyed by its scheduler half
                winner_row = self._strategy_stats.setdefault(
                    record.winner.split("+", 1)[0], dict(_STRATEGY_ZERO)
                )
                winner_row["portfolio_wins"] += 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def summary(self) -> BatchSummary:
        """A :class:`~repro.api.batch.BatchSummary` over jobs this
        service instance finished.

        Field semantics match :meth:`BatchSummary.from_records` — the
        counting ``repro batch`` prints — but the counters accumulate as
        jobs finish, so reading them costs O(1) regardless of how many
        jobs the server has ever served.  Jobs finished by a *previous*
        process (replayed from the queue log) are not re-counted: the
        summary describes this process's serving work, like ``uptime``.
        """
        with self._guard:
            return dataclasses.replace(self._summary)

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload: queue, cache, batch and strategy counters."""
        counts = self.queue.counts()
        cache_stats = self.cache.stats
        per_strategy = {}
        with self._guard:
            for name, stats in sorted(self._strategy_stats.items()):
                entry = dict(stats)
                entry["mean_computed_seconds"] = (
                    stats["computed_seconds"] / stats["computed"]
                    if stats["computed"]
                    else 0.0
                )
                per_strategy[name] = entry
        return {
            "uptime": time.time() - self.started_at if self.started_at else 0.0,
            "workers": self.workers,
            "worker_crashes": self._worker_crashes,
            "queue": {
                "depth": self.queue.depth,
                "max_depth": self.queue.max_depth,
                "jobs": counts,
            },
            "cache": {
                "backend": self.cache.store.backend,
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "writes": cache_stats.writes,
                "hit_rate": (
                    cache_stats.hits / cache_stats.lookups
                    if cache_stats.lookups
                    else 0.0
                ),
            },
            "summary": self.summary().to_dict(),
            "per_strategy": per_strategy,
        }

    def healthz(self) -> Dict[str, Any]:
        """The ``/healthz`` payload: liveness plus queue depth."""
        return {
            "status": "ok" if self.running else "stopped",
            "workers": self.workers,
            "queue_depth": self.queue.depth,
            "uptime": time.time() - self.started_at if self.started_at else 0.0,
        }

    def worker_pids(self) -> List[int]:
        """Pids of the live synthesis child processes.

        What the crash tests aim their SIGKILL at.
        """
        return self._pool.pids() if self._pool is not None else []
