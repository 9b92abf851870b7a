"""Serving-path throughput — cold/warm jobs-per-second and saturation.

The serving layer's pitch mirrors the cache's: content-identical
requests from different clients synthesize once, and warm requests are
answered in cache-lookup time.  This module measures that claim on the
full wire path — HTTP request → persistent queue → process worker tier
→ ``run_task`` → shared :class:`~repro.explore.ResultCache` → HTTP
response — not on in-process shortcuts:

* ``test_serve_throughput[cold]`` submits a fresh batch to a server
  with an empty cache and waits for every certified record,
* ``test_serve_throughput[warm]`` re-submits the identical batch to the
  same server (every job a cache hit),
* ``test_serve_saturation[1|4|16|64]`` drives one warm server from 1,
  4, 16 and 64 concurrent clients — the saturation curve of the
  selector front (jobs/s per client count),
* ``test_warm_submission[inline|named]`` times the server's own cost of
  one warm job in-process — its ``POST /tasks`` and one ``GET
  /jobs/<id>``, no sockets — and breaks it into stages in
  ``extra_info`` (parse, content address, store lookup, log append,
  response encode, the rest as ``other_ms``),
* ``test_client_round_trip[inline|named]`` times the same warm job
  through a real :class:`~repro.serve.Client` over a socket, as a
  caller sees it, and records in ``extra_info`` the client-observed
  ``job_ms``, the TCP connections opened per job once the client is
  warm, and the client's own JSON ``encode_ms`` and ``decode_ms``,
* ``test_warm_serving_is_10x_cold_throughput`` asserts the contract:
  warm sustained jobs/second at least 10x cold, with zero synthesis
  runs during the warm pass — counted from the cache journal, which
  records *computed* results only, so it sees synthesis work no matter
  which worker process performed it.

Record the results into the repository's benchmark history with::

    python benchmarks/record.py --bench bench_serve_throughput \
        --history BENCH_scalability.json --label serve-throughput

(see :mod:`benchmarks.record`).
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
import types

import pytest

from repro.api.task import SynthesisTask, compact_json
from repro.explore.cache import ResultCache
from repro.ir.analysis import critical_path_length
from repro.ir.serialize import to_dict
from repro.library import default_library
from repro.library.selection import MinPowerSelection, selection_delays
from repro.serve import Client, start_server
from repro.serve import client as client_module
from repro.serve import http as http_module
from repro.serve.queue import Job, JobQueue
from repro.store import iter_journal_payloads
from repro.suite.generators import GeneratorConfig, random_cdfg

WORKERS = 4


def _inline_case(seed: int, operations: int = 80) -> dict:
    """One inline-CDFG task spec: a seeded 80-op layered graph at cp + 8.

    Inline graphs keep cold throughput synthesis-bound (so the warm/cold
    ratio measures the cache, not HTTP overhead) and exercise the
    submit-a-full-CDFG-over-the-wire path the named benchmarks skip.
    """
    cdfg = random_cdfg(
        GeneratorConfig(
            operations=operations,
            inputs=4,
            levels=max(3, operations // 6),
            mul_fraction=0.3,
            sub_fraction=0.2,
            outputs=3,
            seed=seed,
        )
    )
    selection = MinPowerSelection().select(cdfg, default_library())
    latency = critical_path_length(cdfg, selection_delays(selection, cdfg)) + 8
    return {"graph": to_dict(cdfg), "latency": latency, "power_budget": 30.0}


#: The served batch: ten seeded 80-op inline graphs plus the paper's two
#: big benchmarks across budgets — 20 jobs, cold cost dominated by real
#: synthesis work.
BATCH = (
    [_inline_case(seed) for seed in range(10)]
    + [
        {"graph": "elliptic", "latency": 30, "power_budget": float(p)}
        for p in (30, 50, 70, 100, 150)
    ]
    + [
        {"graph": "cosine", "latency": 19, "power_budget": float(p)}
        for p in (20, 30, 40, 60, 100)
    ]
)

#: The saturation batch: small named-graph specs, so the measured cost
#: is the front + queue + cache path, not request-body parsing.
SATURATION_BATCH = [
    {"graph": "hal", "latency": 17, "power_budget": float(p)}
    for p in (8, 9, 10, 11, 12, 13, 14, 15, 16, 20)
]

#: Concurrent-client counts of the saturation curve.
SATURATION_CLIENTS = (1, 4, 16, 64)


def synthesis_count(cache_root) -> int:
    """How many records were actually computed (not served from cache).

    The cache journal appends one line per *computed* record — hits are
    never re-journaled — and is shared by every worker process, so this
    count is correct no matter where the synthesis ran.
    """
    return sum(1 for _key in iter_journal_payloads(cache_root))


def submit_and_drain(client: Client, batch=BATCH) -> float:
    """Submit the batch, wait for every job; return sustained jobs/sec."""
    started = time.perf_counter()
    jobs = client.submit(batch)
    final = client.wait(jobs, timeout=300, poll=0.002)
    elapsed = time.perf_counter() - started
    assert all(job["state"] == "done" for job in final)
    return len(final) / elapsed


@pytest.mark.parametrize("state", ["cold", "warm"])
def test_serve_throughput(benchmark, state, tmp_path):
    """Wall-clock of one served batch, cold vs. warm cache."""
    with start_server(workers=WORKERS, state_dir=tmp_path / state) as handle:
        client = Client(handle.url)
        if state == "warm":
            submit_and_drain(client)  # populate the cache, outside the timer
        benchmark.pedantic(
            lambda: submit_and_drain(client),
            rounds=3 if state == "warm" else 1,
            iterations=1,
        )


@pytest.mark.parametrize("clients", SATURATION_CLIENTS)
def test_serve_saturation(benchmark, clients, tmp_path):
    """Warm jobs/s as concurrent clients grow: the front's saturation curve.

    Every client submits the same (cached) batch and polls it to
    completion, so the measured quantity is how the selector front, the
    queue and the cache fast-path hold up under concurrency — the axis
    the thread-per-connection front fell over on.
    """
    with start_server(workers=WORKERS, state_dir=tmp_path / "sat") as handle:
        Client(handle.url).submit_and_wait(SATURATION_BATCH, timeout=300)

        def one_client(url, failures):
            try:
                rate = submit_and_drain(Client(url), batch=SATURATION_BATCH)
                assert rate > 0
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        def drive() -> float:
            failures: list = []
            threads = [
                threading.Thread(
                    target=one_client, args=(handle.url, failures)
                )
                for _ in range(clients)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(600)
            elapsed = time.perf_counter() - started
            assert not failures, failures[0]
            return elapsed

        elapsed = benchmark.pedantic(drive, rounds=1, iterations=1)
        total_jobs = clients * len(SATURATION_BATCH)
        rate = total_jobs / elapsed if elapsed else float("inf")
        benchmark.extra_info["clients"] = clients
        benchmark.extra_info["jobs_per_second"] = round(rate, 1)
        print(f"\nsaturation: {clients:3d} clients -> {rate:8.1f} jobs/s warm")


#: The front's calls a warm job's stages are read off, by stage.
STAGE_CALLS = (
    ("parse", http_module.SubmissionMemo, "admit"),
    ("parse", http_module, "parse_submission"),
    ("content_address", SynthesisTask, "cache_key"),
    ("store_lookup", ResultCache, "peek"),
    ("log_append", JobQueue, "_append"),
    ("response_encode", Job, "to_json"),
)

#: Warm jobs per stage breakdown.
STAGE_JOBS = 300


class StageClock:
    """Exclusive wall time per stage of the wrapped calls (nested calls
    are charged to their own stage, not their caller's)."""

    def __init__(self) -> None:
        self.totals: dict = {}
        self._stack: list = []

    def wrap(self, stage: str, function):
        def timed(*args, **kwargs):
            self._stack.append(0.0)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent = time.perf_counter() - started
                inner = self._stack.pop()
                self.totals[stage] = self.totals.get(stage, 0.0) + spent - inner
                if self._stack:
                    self._stack[-1] += spent

        return timed

    def timed(self, stage: str, function, *args):
        return self.wrap(stage, function)(*args)


def warm_job(server, body: bytes, clock=None) -> None:
    """One warm job on ``server``: submit ``body`` and read its status once."""
    _status, payload, _headers = server._dispatch("POST", "/tasks", body)
    text = clock.timed("response_encode", compact_json, payload) if clock else compact_json(payload)
    (job,) = json.loads(text)["jobs"]
    assert job["state"] == "done"
    server._dispatch("GET", f"/jobs/{job['id']}", b"")


@pytest.mark.parametrize("graph", ["inline", "named"])
def test_warm_submission(benchmark, graph, tmp_path, monkeypatch):
    """The server's cost of one warm job, in-process, and its stages."""
    spec = BATCH[0] if graph == "inline" else SATURATION_BATCH[4]
    body = json.dumps(spec).encode()
    with start_server(workers=1, state_dir=tmp_path / graph) as handle:
        server = handle.server
        Client(handle.url).submit_and_wait([spec], timeout=300)
        benchmark.pedantic(lambda: warm_job(server, body), rounds=STAGE_JOBS, iterations=1)

        clock = StageClock()
        for stage, owner, name in STAGE_CALLS:
            monkeypatch.setattr(owner, name, clock.wrap(stage, getattr(owner, name)))
        per_job = []
        logged = handle.service.queue.log_path.stat().st_size
        for _ in range(STAGE_JOBS):
            before = dict(clock.totals)
            started = time.perf_counter()
            warm_job(server, body, clock)
            total = time.perf_counter() - started
            stages = {s: clock.totals[s] - before.get(s, 0.0) for s in clock.totals}
            stages["other"] = total - sum(stages.values())
            per_job.append(stages)
        monkeypatch.undo()
        log_bytes = (handle.service.queue.log_path.stat().st_size - logged) / STAGE_JOBS
    benchmark.extra_info["body_bytes"] = len(body)
    benchmark.extra_info["log_bytes"] = round(log_bytes)
    for stage in sorted({s for stages in per_job for s in stages}):
        benchmark.extra_info[f"{stage}_ms"] = round(
            1e3 * statistics.median(stages.get(stage, 0.0) for stages in per_job), 4
        )


@pytest.mark.parametrize("graph", ["inline", "named"])
def test_client_round_trip(benchmark, graph, tmp_path, monkeypatch):
    """One warm job as a client sees it: submit plus one status read."""
    spec = BATCH[0] if graph == "inline" else SATURATION_BATCH[4]
    with start_server(workers=1, state_dir=tmp_path / graph) as handle:
        client = Client(handle.url)
        client.submit_and_wait([spec], timeout=300)

        def round_trip() -> None:
            (job,) = client.submit(spec)
            assert client.job(job["id"])["state"] == "done"

        benchmark.pedantic(round_trip, rounds=STAGE_JOBS, iterations=1)
        per_job = []
        for _ in range(STAGE_JOBS):
            started = time.perf_counter()
            round_trip()
            per_job.append(time.perf_counter() - started)

        opened = []
        connect = http.client.HTTPConnection.connect
        monkeypatch.setattr(
            http.client.HTTPConnection, "connect",
            lambda conn: (opened.append(conn), connect(conn))[1],
        )
        clock = StageClock()
        monkeypatch.setattr(client_module, "json", types.SimpleNamespace(
            dumps=clock.wrap("encode", json.dumps), loads=clock.wrap("decode", json.loads),
        ))
        for _ in range(STAGE_JOBS):
            round_trip()
        monkeypatch.undo()
    benchmark.extra_info["job_ms"] = round(1e3 * statistics.median(per_job), 4)
    benchmark.extra_info["connections_per_job"] = round(len(opened) / STAGE_JOBS, 3)
    for stage in ("encode", "decode"):
        benchmark.extra_info[f"{stage}_ms"] = round(1e3 * clock.totals[stage] / STAGE_JOBS, 4)


def test_warm_serving_is_10x_cold_throughput(tmp_path):
    """Warm serving sustains >= 10x the cold jobs-per-second, without a
    single synthesis run — proven from the shared cache journal."""
    with start_server(workers=WORKERS, state_dir=tmp_path / "serve") as handle:
        cache_root = handle.service.cache.root
        client = Client(handle.url)

        cold_rate = submit_and_drain(client)
        cold_syntheses = synthesis_count(cache_root)
        assert cold_syntheses == len(BATCH), "cold pass synthesizes every job once"

        warm_rate = submit_and_drain(client)
        assert synthesis_count(cache_root) == cold_syntheses, (
            "warm pass must not synthesize"
        )

        stats = client.stats()
        assert stats["summary"]["computed"] == len(BATCH)
        assert stats["summary"]["cache_hits"] == len(BATCH)

    assert warm_rate >= 10 * cold_rate, (
        f"warm serving must be >=10x cold throughput: "
        f"cold={cold_rate:.1f} warm={warm_rate:.1f} jobs/s "
        f"({warm_rate / cold_rate:.1f}x)"
    )
    print(
        f"\nserve throughput: cold {cold_rate:.1f} jobs/s, "
        f"warm {warm_rate:.1f} jobs/s ({warm_rate / cold_rate:.1f}x)"
    )
