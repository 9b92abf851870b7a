"""The three workloads: timed passes, a traced breakdown, and the correctness gate.

Each workload function takes the run's seed, its measuring time in seconds
and a :class:`~tracer.Tracer` (``None`` for a timed run) and returns an
:class:`Outcome`.  A timed run repeats passes over the seed's fixed inputs
until the time is up and keeps each pass's time and per-task latencies.  A
traced run makes one untraced and one traced pass of the same inputs, so
the difference between the two is the tracing overhead, and reads the
per-layer numbers off the traced pass.

Every time a timed run reports is scaled to a host of fixed speed by a
kernel timed next to the work (:mod:`pace`); a traced run's layer times
are not.

Every answer is checked: verdict, area, latency and peak power against the
pinned answer of the case (``cases.json``), every in-process feasible result
again through ``check_certificate``, ILP optima against ``exact`` where the
graph is within exact's cap, and on serve-mix one synthesis per fresh key.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import cases as inputs
from pace import kernel_seconds, scale
from tracer import Tracer, install

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
BATCH_JOBS = 2
SERVE_CLIENTS = 2
SERVE_BOOTS = 9
SERVE_HISTORY_ROUNDS = 2
#: Poll interval of a waiting serve client (what the repository's serve
#: throughput bench uses).
POLL_S = 0.002
#: Set-up probes per timed run: a few before the first pass, then one after
#: each pass, so they sample the whole run rather than its first seconds.
SETUP_PROBES = 11
SETUP_PROBES_FIRST = 2
SETUP_PROBE = (
    "import repro\n"
    "from repro.registries import LIBRARIES\n"
    "LIBRARIES.get('table1')()\n"
    "print('ready', flush=True)\n"
)


@dataclass
class Outcome:
    """What one run measured and how many of its answers were right."""

    setup_s: List[float] = field(default_factory=list)
    #: (seconds, per-task latency in seconds, None where the task's answer
    #: was wrong) per timed pass, scaled to the reference host
    passes: List[Tuple[float, List[Optional[float]]]] = field(default_factory=list)
    #: unscaled seconds of every timed pass, and every kernel time taken
    raw_seconds: List[float] = field(default_factory=list)
    kernel_s: List[float] = field(default_factory=list)
    #: at the end of the first timed pass (see :func:`peak_rss_mb`)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: correct answers that were feasible (the rest are infeasibility proofs)
    feasible: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def judge(self, case_id: str, ok: bool, why: str = "", feasible: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{case_id}: {why or 'answer differs from the pin'}")
        elif feasible:
            self.feasible += 1
        return ok


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def bracketed(outcome: Outcome, measure: Callable[[], float]) -> float:
    """``measure()``'s seconds, scaled by kernel runs just before and after it."""
    before = kernel_seconds()
    seconds = measure()
    after = kernel_seconds()
    outcome.kernel_s += [before, after]
    return scale(seconds, (before + after) / 2)


def probe_setup() -> float:
    """Seconds from interpreter start to 'repro imported, library resolved'."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], stdout=subprocess.PIPE,
                          env=child_env(), cwd=ROOT, text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - started
        probe.wait()
    if line.strip() != "ready" or probe.returncode != 0:
        raise RuntimeError("the set-up probe could not import repro")
    return elapsed


def matches(record, expect: List[Any]) -> bool:
    """True when a record's verdict and metrics equal the pinned answer."""
    if bool(record.feasible) != expect[0]:
        return False
    if not expect[0]:
        return True
    return (
        math.isclose(record.area, expect[1], rel_tol=1e-9)
        and record.latency == expect[2]
        and math.isclose(record.peak_power, expect[3], rel_tol=1e-9, abs_tol=1e-9)
    )


def _high_water_kb(pid: int) -> int:
    """Peak resident set of a running process, in KiB (0 once it is gone)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _descendants(pid: int) -> List[int]:
    try:
        children = [int(child) for child in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]
    except OSError:
        return []
    return [found for child in children for found in (child, *_descendants(child))]


def peak_rss_mb(live_pid: Optional[int] = None) -> float:
    """Peak resident set of this process plus its largest descendant, in MiB:
    the largest waited-for one, or ``live_pid`` or one of its descendants,
    which are still running."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if live_pid is not None:
        largest = max(largest, *(_high_water_kb(pid) for pid in [live_pid, *_descendants(live_pid)]))
    return (own + largest) / 1024.0


def timed_passes(seconds: float, run_pass, outcome: Outcome, probe: bool = True,
                 live_pid: Optional[int] = None) -> None:
    """Record ``run_pass(index)`` (seconds, latencies) until ``seconds`` have
    passed (at least one pass), with the set-up probes spread over the run.

    Peak memory is read after the first pass, so it does not grow with the
    number of passes a run gets through (the serve-mix server keeps every
    job it ran); ``live_pid`` is a descendant still running then.
    """
    if probe:
        outcome.setup_s.extend(bracketed(outcome, probe_setup) for _ in range(SETUP_PROBES_FIRST))
    deadline = time.perf_counter() + seconds
    for index in itertools.count():
        # a pass that would mostly run past the deadline is not started
        if index and time.perf_counter() + outcome.raw_seconds[-1] / 2 >= deadline:
            return
        outcome.passes.append(run_pass(index))
        if not index:
            outcome.peak_rss_mb = peak_rss_mb(live_pid)
        if probe and len(outcome.setup_s) < SETUP_PROBES:
            outcome.setup_s.append(bracketed(outcome, probe_setup))


def _layers(tracer: Tracer, since: int, root: str) -> Dict[str, float]:
    """Self seconds per traced layer, plus the remainder no layer claimed."""
    self_s = tracer.self_seconds(since)
    layers = {
        f"{name}_s": self_s.get(name, 0.0)
        for name in ("ir.from_dict", "api.resolve", "library.select", "scheduling.schedule",
                     "synthesis.engine", "lp.ilp", "binding.bind", "api.finalize",
                     "api.analyze", "verify.certificate", "portfolio.race")
    }
    layers["trace.unattributed_s"] = self_s.get(root, 0.0)
    layers["api.cache_key_ms"] = tracer.median_ms("api.cache_key", since)
    # lookups and stores net of the key hashing inside them
    layers["explore.cache_get_ms"] = tracer.median_self_ms("explore.cache_get", since)
    layers["explore.cache_put_ms"] = tracer.median_self_ms("explore.cache_put", since)
    return layers


# --------------------------------------------------------------------------- #
# dse-sweep
# --------------------------------------------------------------------------- #
def _time_worker_calls(log: Path) -> Callable[[], None]:
    """Time every call of the batch workers' entry point from outside.

    ``run_batch`` hands each task to ``_run_task_payload`` in a pool worker.
    The wrapper swapped in here is what the workers find, because they are
    forked after the swap, and it times the whole per-task call: parsing
    the task, opening the shared cache, synthesis, the certificate, the
    store write and encoding the record.  Just before the call it times the
    pace kernel, the host's speed for that worker at that moment.  Each
    call appends one line, the task, its seconds and the kernel's, to
    ``log``.  Returns the function that undoes the swap.
    """
    import repro.api.batch as batch_module

    original = batch_module._run_task_payload

    @functools.wraps(original)
    def timed(payload):
        kernel_s = kernel_seconds(1)
        began = time.perf_counter()
        record = original(payload)
        elapsed = time.perf_counter() - began
        line = json.dumps([json.dumps(payload["task"], sort_keys=True), [elapsed, kernel_s]]) + "\n"
        descriptor = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(descriptor, line.encode())
        finally:
            os.close(descriptor)
        return record

    batch_module._run_task_payload = timed
    return lambda: setattr(batch_module, "_run_task_payload", original)


def dse_sweep(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    """The Figure-2 exploration through ``run_batch(jobs=2)`` on a fresh cache."""
    from repro.api.batch import run_batch
    from repro.api.task import SynthesisTask
    from repro.explore.cache import ResultCache

    work = inputs.dse_cases(seed, inputs.load_cases())
    outcome = Outcome()

    def one_pass(index: int, jobs: int):
        """(seconds, records, cache, (worker-call seconds, kernel seconds)
        per task spec)."""
        cache_dir = SCRATCH / f"dse-cache-{seed}-{index}"
        log = SCRATCH / f"dse-calls-{seed}-{index}.jsonl"
        shutil.rmtree(cache_dir, ignore_errors=True)
        log.unlink(missing_ok=True)
        cache = ResultCache(cache_dir)
        tasks = [SynthesisTask.from_dict(case.spec) for case in work]
        restore = _time_worker_calls(log)
        try:
            started = time.perf_counter()
            records = run_batch(tasks, jobs=jobs, cache=cache)
            wall = time.perf_counter() - started
        finally:
            restore()
        calls = dict(json.loads(line) for line in log.read_text().splitlines()) if log.exists() else {}
        log.unlink(missing_ok=True)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return wall, records, cache, calls

    def gate(records, calls: Optional[Dict[str, List[float]]]) -> List[Optional[float]]:
        """Judge every record; its latency is its worker call's (``calls``),
        scaled by the kernel run before it, and a task no worker ran fails
        when ``calls`` is given."""
        latencies = []
        for case, record in zip(work, records):
            ok, why, latency = matches(record, case.expect), "", None
            if calls is not None:
                call = calls.get(json.dumps(record.task.to_dict(), sort_keys=True))
                if call is not None:
                    latency = scale(*call)
                elif ok:
                    ok, why = False, "no pool worker ran it"
            ok = outcome.judge(case.id, ok, why, bool(record.feasible))
            latencies.append(latency if ok else None)
        return latencies

    def worker_seconds(calls: Dict[str, List[float]]) -> float:
        """Seconds each worker spent in calls and kernel runs, on average."""
        return sum(elapsed + kernel_s for elapsed, kernel_s in calls.values()) / BATCH_JOBS

    def timed_pass(index: int):
        """The pass less the workers' kernel runs, scaled by their mean."""
        wall, records, _, calls = one_pass(index, BATCH_JOBS)
        kernels = [kernel_s for _, kernel_s in calls.values()]
        wall -= sum(kernels) / BATCH_JOBS
        outcome.kernel_s += kernels
        outcome.raw_seconds.append(wall)
        return scale(wall, statistics.fmean(kernels)), gate(records, calls)

    if tracer is None:
        timed_passes(seconds, timed_pass, outcome)
        return outcome

    wall, records, _, calls = one_pass(0, BATCH_JOBS)
    gate(records, calls)
    # the pool's cost beyond the workers' per-task calls: start-up, pickling,
    # IPC and the parent's lookups
    batch_overhead = wall - worker_seconds(calls)
    untraced, records, _, _ = one_pass(1, 1)
    gate(records, None)
    uninstall = install(tracer)
    since = len(tracer.spans)
    try:
        with tracer.span("bench.pass"):
            traced, records, cache, _ = one_pass(2, 1)
    finally:
        uninstall()
    gate(records, None)
    outcome.layers = _layers(tracer, since, "bench.pass")
    launched = sum(1 for race in tracer.races for contender in race.contenders
                   if not contender["from_cache"])
    won = sum(1 for race in tracer.races if race.winner)
    outcome.layers.update({
        "api.batch_overhead_s": batch_overhead,
        "synthesis.backtracks": sum(record.backtracks for record in records),
        "portfolio.contenders_launched": launched,
        "portfolio.useful_ratio": won / launched if launched else 0.0,
        "explore.hit_ratio": cache.stats.hits / cache.stats.lookups if cache.stats.lookups else 0.0,
        "explore.lookups": cache.stats.lookups,
        "trace.tasks": len(records),
        "trace.overhead_frac": traced / untraced - 1.0,
    })
    return outcome


# --------------------------------------------------------------------------- #
# ilp-optimum: in-process run_task, one task at a time
# --------------------------------------------------------------------------- #
def _in_process(work, seconds: float, tracer: Optional[Tracer], outcome: Outcome,
                extra_check=None) -> List:
    from repro.api.batch import run_task
    from repro.api.task import SynthesisTask
    from repro.verify.certificate import check_certificate

    def one_pass() -> tuple:
        """(pass seconds, [(record, seconds)] per case)."""
        records = []
        started = time.perf_counter()
        for case in work:
            task = SynthesisTask.from_dict(case.spec)
            began = time.perf_counter()
            records.append((run_task(task, verify=True), time.perf_counter() - began))
        return time.perf_counter() - started, records

    def paced_pass() -> tuple:
        """(pass seconds, [(record, seconds)] per case), each task timed
        alone and scaled by the mean of the kernel runs just before and
        just after it; the pass is the sum of its tasks."""
        records, raw = [], 0.0
        before = kernel_seconds()
        for case in work:
            began = time.perf_counter()
            record = run_task(SynthesisTask.from_dict(case.spec), verify=True)
            elapsed = time.perf_counter() - began
            after = kernel_seconds()
            outcome.kernel_s.append(before)
            records.append((record, scale(elapsed, (before + after) / 2)))
            raw += elapsed
            before = after
        outcome.raw_seconds.append(raw)
        return sum(seconds for _, seconds in records), records

    def gate(records) -> List[Optional[float]]:
        latencies = []
        for case, (record, latency) in zip(work, records):
            ok = matches(record, case.expect)
            if ok and record.feasible:
                ok = check_certificate(record.result).ok
            if ok and extra_check is not None:
                ok = extra_check(case, record)
            ok = outcome.judge(case.id, ok, feasible=bool(record.feasible))
            latencies.append(latency if ok else None)
        return latencies

    def timed_pass(_index: int):
        wall, records = paced_pass()
        return wall, gate(records)

    if tracer is None:
        timed_passes(seconds, timed_pass, outcome)
        return []
    untraced, records = one_pass()
    gate(records)
    uninstall = install(tracer)
    since = len(tracer.spans)
    try:
        with tracer.span("bench.pass"):
            traced, records = one_pass()
    finally:
        uninstall()
    gate(records)
    records = [record for record, _ in records]
    outcome.layers = _layers(tracer, since, "bench.pass")
    outcome.layers["trace.overhead_frac"] = traced / untraced - 1.0
    outcome.layers["trace.tasks"] = len(records)
    outcome.layers["synthesis.backtracks"] = sum(record.backtracks for record in records)
    return records


def ilp_optimum(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    """The ``ilp`` scheduler on pinned fuzz cases and the beyond-the-cap graphs."""
    from repro.api.task import SynthesisTask
    from repro.library.selection import MinPowerSelection, selection_delays, selection_powers
    from repro.scheduling.constraints import PowerConstraint
    from repro.scheduling.exact import minimum_latency_under_power

    work = inputs.ilp_cases(seed, inputs.load_cases())
    outcome = Outcome()
    exact_optima: Dict[str, Optional[int]] = {}

    def agrees_with_exact(case, record) -> bool:
        task = SynthesisTask.from_dict(case.spec)
        if not record.feasible or task.register_budget is not None:
            return True
        if case.id not in exact_optima:
            cdfg, library = task.resolve_graph(), task.resolve_library()
            if len(cdfg.schedulable_operations()) > inputs.EXACT_CAP:
                exact_optima[case.id] = None
            else:
                selection = MinPowerSelection().select(cdfg, library)
                power = (PowerConstraint(task.power_budget) if task.power_budget is not None
                         else PowerConstraint.unbounded())
                exact_optima[case.id] = minimum_latency_under_power(
                    cdfg, selection_delays(selection, cdfg), selection_powers(selection, cdfg),
                    power, horizon=task.latency, max_operations=inputs.EXACT_CAP)
        optimum = exact_optima[case.id]
        return optimum is None or optimum == record.result.schedule.metadata["optimal_makespan"]

    records = _in_process(work, seconds, tracer, outcome, extra_check=agrees_with_exact)
    if tracer is not None:
        metadata = [record.result.schedule.metadata for record in records if record.feasible]
        outcome.layers["lp.bb_nodes"] = sum(entry["ilp_nodes"] for entry in metadata)
        outcome.layers["lp.simplex_iterations"] = sum(entry["ilp_iterations"] for entry in metadata)
    return outcome


# --------------------------------------------------------------------------- #
# serve-mix
# --------------------------------------------------------------------------- #
class Server:
    """``repro serve`` in its own process, on an ephemeral port."""

    def __init__(self, state_dir: Path) -> None:
        from repro.serve.client import Client, ClientError

        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(state_dir)],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        try:
            line = self.process.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.url = line.rsplit(" ", 1)[-1].strip()
            client = Client(self.url, timeout=5.0, retries=0)
            while True:
                try:
                    if client.healthz()["status"] == "ok":
                        break
                except ClientError:
                    pass
                if self.process.poll() is not None:
                    raise RuntimeError("repro serve exited during boot")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _journal_count(cache_root: Path) -> int:
    from repro.store import iter_journal_payloads

    return sum(1 for _ in iter_journal_payloads(cache_root))


def _serve_pass(url: str, jobs: List, tracer: Optional[Tracer]) -> tuple:
    """Closed loop of SERVE_CLIENTS threads, each submitting a job and waiting
    for it; returns (wall seconds, per-job (latency, final state, polls))."""
    from repro.serve.client import Client, ClientError

    results: List[Any] = [None] * len(jobs)
    cursor = itertools.count()
    lock = threading.Lock()

    def client_loop() -> None:
        client = Client(url, timeout=30.0)
        while True:
            with lock:
                index = next(cursor)
            if index >= len(jobs):
                return
            began = time.perf_counter()
            polls, state = 0, None
            span = tracer.span("serve.job", request=str(index)) if tracer else nullcontext()
            try:
                with span:
                    job_id = client.submit(jobs[index].spec)[0]["id"]
                    while True:
                        state = client.job(job_id)
                        polls += 1
                        if state["state"] in ("done", "failed"):
                            break
                        time.sleep(POLL_S)
            except ClientError as exc:
                state = {"state": "error", "error": str(exc)}
            results[index] = (time.perf_counter() - began, state, polls)

    threads = [threading.Thread(target=client_loop) for _ in range(SERVE_CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, results


def serve_mix(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    """A warm ``repro serve`` with history, driven by a closed loop of two clients."""
    from repro.api.batch import TaskResult
    from repro.api.task import SynthesisTask
    from repro.explore.cache import ResultCache
    from repro.serve.client import Client

    mix = inputs.ServeMix(seed, inputs.load_cases())
    state_dir = SCRATCH / f"serve-{seed}"
    shutil.rmtree(state_dir, ignore_errors=True)
    cache_root = state_dir / "cache"
    outcome = Outcome()
    history = Server(state_dir)
    try:
        client = Client(history.url, timeout=60.0)
        for _ in range(SERVE_HISTORY_ROUNDS):
            states = client.wait(client.submit([case.spec for case in mix.hot]),
                                 timeout=120.0, poll=0.01)
            for case, state in zip(mix.hot, states):
                if state["state"] != "done" or not matches(TaskResult.from_dict(state["record"]), case.expect):
                    raise RuntimeError(f"serve-mix history job {case.id} came back wrong")
    finally:
        history.stop()

    servers = []

    def boot() -> float:
        servers.append(Server(state_dir))
        return servers[-1].boot_s

    try:
        for _ in range(SERVE_BOOTS):
            if servers:
                servers[-1].stop()
            outcome.setup_s.append(bracketed(outcome, boot))
        server = servers[-1]
        journal_before = _journal_count(cache_root)
        fresh = 0

        def one_pass(index: int, traced: Optional[Tracer]):
            nonlocal fresh
            jobs = mix.jobs(index)
            fresh += sum(1 for case in jobs if case.id.startswith("fresh/"))
            wall, results = _serve_pass(server.url, jobs, traced)
            latencies = []
            for case, (latency, state, _polls) in zip(jobs, results):
                ok = state["state"] == "done" and matches(TaskResult.from_dict(state["record"]), case.expect)
                ok = outcome.judge(case.id, ok, state.get("error", ""), case.expect[0])
                latencies.append(latency if ok else None)
            return wall, latencies, jobs, results

        def timed_pass(index: int):
            """The pass, scaled by kernel runs just before and after it,
            while the server is idle."""
            before = kernel_seconds()
            wall, latencies, _, _ = one_pass(index, None)
            after = kernel_seconds()
            outcome.kernel_s += [before, after]
            outcome.raw_seconds.append(wall)
            kernel_s = (before + after) / 2
            return scale(wall, kernel_s), [None if latency is None else scale(latency, kernel_s)
                                           for latency in latencies]

        if tracer is None:
            timed_passes(seconds, timed_pass, outcome, probe=False, live_pid=server.process.pid)
        else:
            untraced = one_pass(0, None)[0]
            stats_before = Client(server.url).stats()["cache"]
            journal_mid = _journal_count(cache_root)
            uninstall = install(tracer)
            since = len(tracer.spans)
            try:
                traced, _, jobs, results = one_pass(1, tracer)
                stats_after = Client(server.url).stats()["cache"]
                syntheses = _journal_count(cache_root) - journal_mid
                # the lookups a warm job pays server-side, repeated here on the
                # same specs: hashing the request, a get on an open handle, and
                # a get on a freshly opened handle
                key_since = len(tracer.spans)
                for case in jobs:
                    SynthesisTask.from_dict(case.spec).cache_key()
                hot = [SynthesisTask.from_dict(case.spec) for case in mix.hot]
                for task in hot:
                    task.cache_key()
                warm = ResultCache(cache_root)
                for task in hot:
                    warm.get(task)
                cold_ms = []
                for task in hot:
                    began = time.perf_counter()
                    ResultCache(cache_root).get(task)
                    cold_ms.append((time.perf_counter() - began) * 1e3)
            finally:
                uninstall()
            self_s = tracer.self_seconds(since)
            done = [state for _, state, _ in results if state.get("state") == "done"]
            hits = stats_after["hits"] - stats_before["hits"]
            lookups = hits + stats_after["misses"] - stats_before["misses"]
            outcome.layers = {
                "serve.boot_s": statistics.median(outcome.setup_s),
                "serve.submit_ms": tracer.median_ms("serve.submit", since),
                "serve.queue_wait_ms": statistics.median(
                    (s["started_at"] - s["submitted_at"]) * 1e3 for s in done),
                "serve.exec_ms": statistics.median(
                    (s["finished_at"] - s["started_at"]) * 1e3 for s in done),
                "serve.client_overhead_ms": statistics.median(
                    (latency - (s["finished_at"] - s["submitted_at"])) * 1e3
                    for latency, s, _ in results if s.get("state") == "done"),
                "serve.polls_per_job": sum(polls for _, _, polls in results) / len(results),
                "store.syntheses": syntheses,
                "store.cold_get_ms": statistics.median(cold_ms),
                "api.cache_key_ms": tracer.median_ms("api.cache_key", key_since),
                "explore.cache_get_ms": tracer.median_self_ms("explore.cache_get", key_since),
                "explore.hit_ratio": hits / lookups if lookups else 0.0,
                "explore.lookups": lookups,
                "trace.unattributed_s": self_s.get("serve.job", 0.0),
                "trace.tasks": len(jobs),
                "trace.overhead_frac": traced / untraced - 1.0,
            }
        syntheses_total = _journal_count(cache_root) - journal_before
        # exactly one synthesis per fresh key: a miss computed twice, or a
        # hot job recomputed, shows up as a journal line too many
        outcome.judge("serve-mix/journal", syntheses_total == fresh,
                      f"{syntheses_total} syntheses for {fresh} fresh keys")
    finally:
        if servers:
            servers[-1].stop()
        shutil.rmtree(state_dir, ignore_errors=True)
    return outcome


WORKLOADS = {
    "dse-sweep": dse_sweep,
    "ilp-optimum": ilp_optimum,
    "serve-mix": serve_mix,
}
