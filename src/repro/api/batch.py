"""Parallel batch execution of synthesis tasks.

``run_batch`` fans a list of :class:`~repro.api.task.SynthesisTask` specs
out over a :class:`~repro.exec.WorkerPool` and returns a structured
:class:`TaskResult` per task, in input order.  Because tasks
are plain data, shipping them to workers is trivial; workers return the
scalar metrics (area, peak power, latency, …) so the parent never has to
unpickle a full datapath.  With ``jobs <= 1`` everything runs in-process
and the full :class:`~repro.synthesis.result.SynthesisResult` objects are
kept on the records.

Infeasible constraint combinations are *data*, not errors: they come back
as ``feasible=False`` records carrying the failure message, which is what
lets a sweep probe below the feasibility frontier without try/except at
every call site.  Genuine programming errors still propagate.

:class:`Sweep` is the declarative form of the most common batch — one
benchmark, one latency bound, many power budgets (one Figure-2 curve).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..scheduling.constraints import ConstraintError
from ..scheduling.exact import ExactSchedulerError
from ..scheduling.list_scheduler import ResourceInfeasibleError
from ..scheduling.pasap import PowerInfeasibleError
from ..scheduling.schedule import ScheduleError
from ..store import claims
from ..synthesis.result import SynthesisError, SynthesisResult
from .pipeline import Pipeline
from .task import PORTFOLIO_SCHEDULER, SynthesisTask, TaskError

#: Exception types recorded as an infeasible task rather than raised.
INFEASIBLE_ERRORS = (
    SynthesisError,
    ScheduleError,
    ResourceInfeasibleError,
    PowerInfeasibleError,
    ExactSchedulerError,
    ConstraintError,
)


@dataclass
class TaskResult:
    """Structured outcome of one task in a batch.

    Attributes:
        task: The spec that was run.
        feasible: Whether synthesis succeeded under the task's constraints.
        area: Total datapath area (``None`` when infeasible).
        fu_area: Functional-unit area only (``None`` when infeasible).
        peak_power: Peak per-cycle power of the result.
        latency: Cycles used by the result.
        registers: Register count of the result's datapath allocation
            (``None`` when infeasible or unallocated).
        backtracks: Engine backtrack-and-lock invocations.
        error: Failure message for infeasible tasks.
        error_type: Exception class name for infeasible tasks.
        elapsed: Wall-clock seconds the task took.
        cached: True when this record was served from a
            :class:`~repro.explore.cache.ResultCache` instead of being
            synthesized (``elapsed`` then reports the *original* run).
        winner: For ``portfolio`` records only: the pair label of the
            concrete strategy whose result this is (``"engine"``,
            ``"ilp+greedy"``, …).  ``None`` everywhere else.
        result: The full result object — only populated for in-process
            (sequential) execution; worker processes and the result cache
            return scalars only.
    """

    task: SynthesisTask
    feasible: bool
    area: Optional[float] = None
    fu_area: Optional[float] = None
    peak_power: Optional[float] = None
    latency: Optional[int] = None
    registers: Optional[int] = None
    backtracks: int = 0
    error: Optional[str] = None
    error_type: Optional[str] = None
    elapsed: float = 0.0
    cached: bool = False
    winner: Optional[str] = None
    result: Optional[SynthesisResult] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (drops the heavy ``result`` object)."""
        payload = {
            "task": self.task.to_dict(),
            "feasible": self.feasible,
            "area": self.area,
            "fu_area": self.fu_area,
            "peak_power": self.peak_power,
            "latency": self.latency,
            "registers": self.registers,
            "backtracks": self.backtracks,
            "error": self.error,
            "error_type": self.error_type,
            "elapsed": self.elapsed,
            "cached": self.cached,
        }
        # only portfolio records carry a winner; omitting the key keeps
        # every pre-portfolio record byte-identical on disk
        if self.winner is not None:
            payload["winner"] = self.winner
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TaskResult":
        data = dict(data)
        task = SynthesisTask.from_dict(data.pop("task"))
        return cls(task=task, **data)


@dataclass
class BatchSummary:
    """Aggregate counters for one batch of task records.

    Built by :meth:`from_records` from the same per-record flags the CLI
    table shows, so every consumer — ``repro batch``, the serving layer's
    ``/stats`` endpoint, a notebook — reports identical numbers for
    identical records.

    Attributes:
        total: Records in the batch.
        feasible: Records whose constraints were satisfiable.
        infeasible: Records that failed their constraints (``total -
            feasible``).
        cache_hits: Records served from a
            :class:`~repro.explore.cache.ResultCache` (``cached=True``)
            instead of being synthesized.
        computed: Records synthesized in this run (``total - cache_hits``).
        certificate_errors: Infeasible records whose failure was a
            structural :class:`~repro.verify.CertificateError` — a result
            the pipeline produced but the independent checker rejected.
            These are bugs, not constraint data; ``repro batch`` exits
            with the violations code when any are present.
        elapsed: Wall-clock seconds of the whole batch call (``0.0`` when
            the summary was built from records alone).
    """

    total: int = 0
    feasible: int = 0
    infeasible: int = 0
    cache_hits: int = 0
    computed: int = 0
    certificate_errors: int = 0
    elapsed: float = 0.0

    @classmethod
    def from_records(
        cls, records: Sequence["TaskResult"], *, elapsed: float = 0.0
    ) -> "BatchSummary":
        """Count one list of records into a summary."""
        feasible = sum(1 for record in records if record.feasible)
        hits = sum(1 for record in records if record.cached)
        return cls(
            total=len(records),
            feasible=feasible,
            infeasible=len(records) - feasible,
            cache_hits=hits,
            computed=len(records) - hits,
            certificate_errors=sum(
                1 for record in records if record.error_type == "CertificateError"
            ),
            elapsed=elapsed,
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of records served from the cache (0.0 for an empty batch)."""
        return self.cache_hits / self.total if self.total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (what ``/stats`` and ``repro batch -o`` embed)."""
        return {
            "total": self.total,
            "feasible": self.feasible,
            "infeasible": self.infeasible,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "certificate_errors": self.certificate_errors,
            "hit_rate": self.hit_rate,
            "elapsed": self.elapsed,
        }


class BatchResults(List[TaskResult]):
    """The list of records :func:`run_batch` returns, plus its summary.

    A plain ``list`` of :class:`TaskResult` in every existing sense
    (indexing, iteration, ``len``), with a :attr:`summary` carrying the
    batch-level counters so callers stop re-deriving hit/feasibility
    counts with ad-hoc comprehensions.
    """

    def __init__(self, records: Iterable[TaskResult] = (), *, elapsed: float = 0.0):
        super().__init__(records)
        self.summary = BatchSummary.from_records(self, elapsed=elapsed)


def run_task(
    task: SynthesisTask,
    *,
    keep_result: bool = True,
    pipeline: Optional[Pipeline] = None,
    cdfg=None,
    library=None,
    cache=None,
    verify: bool = False,
) -> TaskResult:
    """Run one task; return a record instead of raising on infeasibility.

    ``cdfg`` / ``library`` are forwarded to :meth:`Pipeline.run` so
    in-process callers holding live objects skip the task's own
    resolution (and any inline-dict round-trip).

    ``cache`` is a :class:`~repro.explore.cache.ResultCache`: a hit
    returns the stored record (``cached=True``, scalar metrics only)
    without synthesizing; a miss synthesizes and stores the outcome —
    feasible or not.  The cache is ignored alongside a custom
    ``pipeline``, whose ad-hoc passes are invisible to the content
    address and would poison shared entries.  It is likewise ignored
    whenever a live ``cdfg`` / ``library`` override accompanies the
    task: the pipeline would run on the override while the record filed
    under the *task spec's* address, poisoning it for every honest
    lookup.  Callers holding live objects cache through an inline task
    instead (what :func:`repro.synthesis.explore.probe_point` does).

    With a readable :class:`~repro.explore.cache.ResultCache` a miss is
    single-flight across processes: the task is synthesized under the
    store claim on its content address (:mod:`repro.store.claims`), and a
    caller that finds the claim held polls the store (uncounted ``peek``)
    until the holder's record appears — returned as a cache hit — or the
    holder dies and the kernel frees its claim (see :func:`claim_or_wait`).
    Batches, sweeps, serve children and race contenders sharing a cache
    directory therefore synthesize each address once.  A write-only
    cache, or a bare ``get``/``put`` memo, takes no claim.

    A ``scheduler="portfolio"`` task dispatches to
    :func:`repro.portfolio.run_portfolio` after the cache check: the
    contender subset races, each contender individually certificate-gated
    (``verify`` adds nothing — the gate always runs), and the winning
    record comes back with its ``winner`` pair label set.  Custom
    pipelines and live ``cdfg``/``library`` overrides are rejected for
    portfolio tasks.  Non-verdict outcomes (deadline expiry, crash-tainted
    all-infeasible races) are returned but never cached.

    ``verify=True`` additionally runs the certificate checker
    (:func:`repro.verify.check_certificate`) on a feasible result and
    **raises** :class:`~repro.verify.CertificateError` on violations —
    the uncertified result is neither recorded nor cached.  The task's
    own ``verify`` field runs the *same* checker inside the pipeline but
    converts failures into infeasible records; this flag therefore only
    adds behaviour for tasks with ``verify=False`` (or custom pipelines
    without the finalize gate), where it is the caller-side assertion
    that feasibility claims must be certified, loudly.  Cache hits carry
    scalar metrics only and cannot be re-certified; they are returned
    as-is.
    """
    use_cache = (
        cache is not None and pipeline is None and cdfg is None and library is None
    )
    claim = None
    if use_cache:
        hit = cache.get(task)
        if hit is None:
            hit, claim = claim_or_wait(cache, task)
        if hit is not None:
            return hit
    try:
        record, cacheable = _synthesize(task, keep_result, pipeline, cdfg, library, cache, verify)
        if use_cache and cacheable:
            cache.put(task, record)
    finally:
        if claim is not None:
            claim.release()
    return record


def claim_or_wait(cache, task: SynthesisTask):
    """Single-flight for a ``task`` that ``cache`` just missed.

    Returns ``(hit, claim)``.  Takes the store claim on the task's
    content address (:mod:`repro.store.claims`); while another process
    holds it, polls the store (uncounted ``peek``) every
    :data:`~repro.store.claims.CLAIM_POLL` seconds and returns the
    holder's record as ``(hit, None)``.  A dead holder's claim is free
    on the next attempt.  ``(None, claim)`` means compute, ``put``, then
    release the claim.  ``(None, None)`` means compute unclaimed: the
    cache is not a readable :class:`~repro.explore.cache.ResultCache`, or
    :data:`~repro.store.claims.CLAIM_TIMEOUT` passed.
    """
    if not (_is_result_cache(cache) and cache.read):
        return None, None
    deadline = time.monotonic() + claims.CLAIM_TIMEOUT
    while True:
        claim = claims.try_acquire(cache.root, task.cache_key())
        # past the deadline, computing redundantly beats waiting on
        if claim is not None or time.monotonic() > deadline:
            break
        time.sleep(claims.CLAIM_POLL)
        hit = cache.peek(task)
        if hit is not None:
            return hit, None
    hit = cache.peek(task)
    if hit is not None and claim is not None:
        claim.release()
        claim = None
    return hit, claim


def _synthesize(task, keep_result, pipeline, cdfg, library, cache, verify):
    """Compute one record; returns ``(record, cacheable)``.

    Looks nothing up for ``task`` itself; a portfolio race hands ``cache``
    to its contenders, which each go through :func:`run_task`.
    """
    if task.scheduler == PORTFOLIO_SCHEDULER:
        if pipeline is not None or cdfg is not None or library is not None:
            raise TaskError(
                "a portfolio task cannot take a custom pipeline or live "
                "cdfg/library overrides; contenders resolve the task spec "
                "themselves"
            )
        from ..portfolio.runner import run_portfolio  # avoid a cycle

        outcome = run_portfolio(task, cache=cache)
        # deadline expiries and crash-tainted infeasibles are not verdicts
        # on the spec; caching them would poison honest lookups
        return outcome.record, outcome.cacheable
    pipeline = pipeline or Pipeline.default()
    started = time.perf_counter()
    try:
        result = pipeline.run(task, cdfg=cdfg, library=library)
    except INFEASIBLE_ERRORS as exc:
        record = TaskResult(
            task=task,
            feasible=False,
            error=str(exc),
            error_type=type(exc).__name__,
            elapsed=time.perf_counter() - started,
        )
    else:
        if verify:
            from ..verify.certificate import check_certificate  # avoid a cycle

            check_certificate(result).raise_if_violations()
        record = TaskResult(
            task=task,
            feasible=True,
            area=result.total_area,
            fu_area=result.fu_area,
            peak_power=result.peak_power,
            latency=result.latency,
            registers=(
                result.datapath.registers.count
                if result.datapath.registers is not None
                else None
            ),
            backtracks=result.backtracks,
            elapsed=time.perf_counter() - started,
            result=result if keep_result else None,
        )
    return record, True


def worker_payload(task: SynthesisTask, cache=None, *, verify: bool = False) -> Dict[str, Any]:
    """The payload :func:`_run_task_payload` runs ``task`` from.

    It names ``cache``'s directory only when ``cache`` is a
    :class:`~repro.explore.cache.ResultCache`; an in-process memo has no
    directory a worker could open.
    """
    on_disk = _is_result_cache(cache)
    return {
        "task": task.to_dict(),
        "cache_dir": str(cache.root) if on_disk else None,
        "cache_read": on_disk and cache.read,
        "verify": verify,
    }


def _is_result_cache(cache) -> bool:
    """Whether ``cache`` is an on-disk cache, not a bare ``get``/``put`` memo."""
    from ..explore.cache import ResultCache  # local import to avoid a cycle

    return isinstance(cache, ResultCache)


#: A worker child's open caches, by (pid, directory, read flag).  The pid
#: keeps a forked child off the handles it inherited: their file offsets
#: are shared with the parent's.
_WORKER_CACHES: Dict[Tuple[int, str, bool], Any] = {}


def _run_task_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The entry of every worker child: a :func:`worker_payload` in, a record dict out.

    Batch workers, serve children and deadline-race contenders all run
    this.  The child opens the payload's cache directory once and keeps
    it; each computed record lands on disk (and in the journal) the
    moment it finishes, so a killed parallel grid loses at most the
    points that were in flight.  An error raises, and
    :class:`~repro.exec.ProcessWorker` re-raises it in the parent.
    """
    cache = None
    if payload["cache_dir"] is not None:
        key = (os.getpid(), payload["cache_dir"], payload["cache_read"])
        cache = _WORKER_CACHES.get(key)
        if cache is None:
            from ..explore.cache import ResultCache  # local import to avoid a cycle

            cache = _WORKER_CACHES[key] = ResultCache(key[1], read=key[2])
    task = SynthesisTask.from_dict(payload["task"])
    return run_task(task, keep_result=False, cache=cache, verify=payload["verify"]).to_dict()


def run_batch(
    tasks: Iterable[SynthesisTask],
    *,
    jobs: Optional[int] = None,
    keep_results: Optional[bool] = None,
    pipeline: Optional[Pipeline] = None,
    cache=None,
) -> BatchResults:
    """Run many tasks, optionally in parallel; results in input order.

    Args:
        tasks: Task specs to run.
        jobs: Worker processes.  ``None`` or ``<= 1`` runs sequentially
            in-process (full result objects kept by default).
        keep_results: Keep full :class:`SynthesisResult` objects on the
            records.  Defaults to True sequentially; forced off for
            ``jobs > 1`` (workers return scalars only).  Cache hits carry
            scalars only either way.
        pipeline: Custom pipeline — sequential execution only, since a
            pipeline with ad-hoc passes cannot be shipped to workers.
            Disables the cache (see :func:`run_task`).
        cache: A :class:`~repro.explore.cache.ResultCache` shared by every
            task.  In parallel mode the parent answers what it can before
            spawning workers, ships only the misses, and the workers write
            each computed point straight to the shared directory — a fully
            warm batch never starts the process pool at all.  Duplicate
            specs, like any two processes sharing a readable and writable
            cache, synthesize once under the store claim (see
            :func:`run_task`); the twin comes back ``cached=True``.

    Returns:
        A :class:`BatchResults` list — one :class:`TaskResult` per task,
        in the same order as ``tasks``, with the batch-level
        :class:`BatchSummary` (feasibility, cache hit/miss and
        certificate-error counts) on ``.summary``.
    """
    started = time.perf_counter()
    task_list = list(tasks)
    workers = 1 if jobs is None else int(jobs)
    if workers <= 1 or len(task_list) <= 1:
        keep = True if keep_results is None else keep_results
        records = [
            run_task(t, keep_result=keep, pipeline=pipeline, cache=cache)
            for t in task_list
        ]
        return BatchResults(records, elapsed=time.perf_counter() - started)
    if pipeline is not None:
        raise ValueError(
            "a custom pipeline cannot be used with jobs > 1; "
            "run sequentially or register the custom strategies instead"
        )
    if keep_results:
        raise ValueError("keep_results=True requires sequential execution (jobs <= 1)")

    results: List[Optional[TaskResult]] = [None] * len(task_list)
    pending = list(range(len(task_list)))
    if cache is not None:
        pending = []
        for index, task in enumerate(task_list):
            hit = cache.get(task)
            if hit is not None:
                results[index] = hit
            else:
                pending.append(index)
    if pending:
        payloads = [worker_payload(task_list[index], cache) for index in pending]
        # imported here: the process machinery costs a plain
        # ``import repro`` ~30 ms and only parallel batches use it
        from ..exec import WorkerPool

        with WorkerPool(min(workers, len(payloads)), _run_task_payload) as pool:
            records = pool.map(payloads)
        for index, record in zip(pending, records):
            result = TaskResult.from_dict(record)
            # the worker rebuilt the task from its dict; hand back the caller's
            result.task = task_list[index]
            results[index] = result
    return BatchResults(
        (record for record in results if record is not None),
        elapsed=time.perf_counter() - started,
    )


@dataclass
class Sweep:
    """A declarative batch: one benchmark × one latency × many power budgets.

    ``Sweep("hal", 17, [8, 10, 12, 15]).run(jobs=4)`` is one Figure-2
    curve computed on four cores.
    """

    graph: Union[str, Dict[str, Any]]
    latency: int
    power_budgets: Sequence[float]
    library: Union[str, Dict[str, Any]] = "table1"
    register_budget: Optional[int] = None
    scheduler: str = "engine"
    binder: str = "greedy"
    selector: str = "min_power"
    options: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    def tasks(self) -> List[SynthesisTask]:
        """Expand into one task per power budget (ascending)."""
        if isinstance(self.power_budgets, (str, int, float)) or not hasattr(
            self.power_budgets, "__iter__"
        ):
            raise TaskError(
                f"sweep power_budgets must be a list of numbers, got {self.power_budgets!r}"
            )
        if not self.power_budgets:
            raise TaskError("a sweep needs at least one power budget")
        return [
            SynthesisTask(
                graph=self.graph,
                latency=self.latency,
                power_budget=budget,
                register_budget=self.register_budget,
                library=self.library,
                scheduler=self.scheduler,
                binder=self.binder,
                selector=self.selector,
                options=dict(self.options),
                label=self.label,
            )
            for budget in sorted(self.power_budgets)
        ]

    def run(self, jobs: Optional[int] = None) -> List[TaskResult]:
        """Run the expanded tasks through :func:`run_batch`."""
        keep = None if (jobs is None or jobs <= 1) else False
        return run_batch(self.tasks(), jobs=jobs, keep_results=keep)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "graph": self.graph,
            "latency": self.latency,
            "power_budgets": list(self.power_budgets),
            "library": self.library,
            "register_budget": self.register_budget,
            "scheduler": self.scheduler,
            "binder": self.binder,
            "selector": self.selector,
            "options": dict(self.options),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Sweep":
        if not isinstance(data, dict):
            raise TaskError(f"sweep spec must be an object, got {type(data).__name__}")
        valid = {
            "graph",
            "latency",
            "power_budgets",
            "library",
            "register_budget",
            "scheduler",
            "binder",
            "selector",
            "options",
            "label",
        }
        unknown = sorted(set(data) - valid)
        if unknown:
            raise TaskError(f"unknown sweep field(s) {unknown}; valid: {sorted(valid)}")
        for required in ("graph", "latency", "power_budgets"):
            if required not in data:
                raise TaskError(f"sweep spec is missing the required {required!r} field")
        return cls(**data)
