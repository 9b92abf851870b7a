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

import threading
import time

import pytest

from repro.ir.analysis import critical_path_length
from repro.ir.serialize import to_dict
from repro.library import default_library
from repro.library.selection import MinPowerSelection, selection_delays
from repro.serve import Client, start_server
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
