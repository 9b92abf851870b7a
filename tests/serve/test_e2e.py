"""End-to-end serving test: the ISSUE-5 acceptance scenario.

Boots the full stack (HTTP server on an ephemeral port → service →
persistent queue → shared result cache), submits the *same* 20-task
batch from two concurrent clients, and proves:

* **single-synthesis semantics** — exactly 20 synthesis runs happen in
  total: of each task's two jobs, one computes and the other is
  answered from the cache (``cached=True``) — whichever took the store
  claim second, or was dequeued after its twin finished,
* **certified results only** — every feasible record served over
  ``GET /results/<key>`` corresponds to a result that passes the
  independent certificate checker when recomputed in-process,
* **shared accounting** — ``/stats`` reports the same hit/computed
  split the records themselves show.
"""

import threading

import pytest

from repro.api.batch import run_task
from repro.serve import Client, start_server
from repro.verify import check_certificate

#: The 20-task batch: two benchmarks × ten power budgets, all fast.
BATCH = [
    {"graph": "hal", "latency": 17, "power_budget": float(p)}
    for p in (8, 9, 10, 11, 12, 14, 16, 20, 25, 30)
] + [
    {"graph": "tree", "latency": 12, "power_budget": float(p)}
    for p in (6, 8, 10, 12, 14, 16, 18, 20, 25, 30)
]


@pytest.fixture(scope="module")
def served_batches(tmp_path_factory):
    """Run the two-client scenario once; every test inspects the outcome."""
    state_dir = tmp_path_factory.mktemp("serve-e2e")
    with start_server(workers=4, state_dir=state_dir) as handle:
        first = Client(handle.url)
        second = Client(handle.url)

        # Client one submits the batch; while its jobs are still being
        # synthesized, client two concurrently submits the identical batch
        # and both poll to completion in parallel threads.
        first_jobs = first.submit(BATCH)
        second_jobs = second.submit(BATCH)

        outcomes = {}

        def drain(name, client, jobs):
            outcomes[name] = client.wait(jobs, timeout=300)

        threads = [
            threading.Thread(target=drain, args=("first", first, first_jobs)),
            threading.Thread(target=drain, args=("second", second, second_jobs)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300)

        stats = first.stats()
        results = {
            job["key"]: first.result(job["key"])
            for job in first_jobs
            if first.job(job["id"])["record"]["feasible"]
        }
    return outcomes, stats, results


def test_all_forty_jobs_finish(served_batches):
    outcomes, _stats, _results = served_batches
    assert len(outcomes["first"]) == 20
    assert len(outcomes["second"]) == 20
    for jobs in outcomes.values():
        assert all(job["state"] == "done" for job in jobs)


def test_each_task_is_synthesized_once_across_both_clients(served_batches):
    outcomes, stats, _results = served_batches
    # exactly one synthesis per distinct task across both clients; which
    # twin computes is decided by the store claim, not by submission order
    flags = {}
    for job in outcomes["first"] + outcomes["second"]:
        flags.setdefault(job["key"], []).append(job["record"]["cached"])
    assert len(flags) == len(BATCH)
    assert all(sorted(pair) == [False, True] for pair in flags.values()), flags
    assert stats["summary"]["computed"] == len(BATCH)
    assert stats["summary"]["cache_hits"] == len(BATCH)
    assert stats["cache"]["writes"] == len(BATCH)


def test_both_clients_see_identical_metrics(served_batches):
    outcomes, _stats, _results = served_batches
    first = {job["key"]: job["record"] for job in outcomes["first"]}
    second = {job["key"]: job["record"] for job in outcomes["second"]}
    assert set(first) == set(second)
    for key, record in first.items():
        twin = second[key]
        assert (record["feasible"], record["area"], record["peak_power"]) == (
            twin["feasible"],
            twin["area"],
            twin["peak_power"],
        )


def test_every_served_result_is_certificate_clean(served_batches):
    _outcomes, _stats, results = served_batches
    assert results, "the batch must contain feasible points"
    for key, served in results.items():
        # The server stores scalar metrics only; recompute the task
        # in-process and certify the full result independently, then
        # check the served scalars match the certified result.
        assert served.task.cache_key() == key
        record = run_task(served.task)
        report = check_certificate(record.result)
        assert report.ok, report.describe()
        assert served.area == record.area
        assert served.peak_power == record.peak_power
        assert served.latency == record.latency


def test_stats_expose_queue_and_strategy_counters(served_batches):
    _outcomes, stats, _results = served_batches
    assert stats["queue"]["depth"] == 0
    assert stats["queue"]["jobs"]["done"] == 2 * len(BATCH)
    engine = stats["per_strategy"]["engine"]
    assert engine["jobs"] == 2 * len(BATCH)
    assert engine["computed"] == len(BATCH)
    assert engine["cache_hits"] == len(BATCH)
