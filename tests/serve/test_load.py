"""Load test: many clients, many jobs, two services, one cache directory.

The scenario the serving re-architecture exists for: several client
threads hammer *two* independent service processes' HTTP fronts, both
services sharing one result-cache directory.  Afterwards the books must
balance exactly:

* zero dropped or duplicated jobs — every accepted job id is unique and
  reaches ``done`` with a feasible record,
* **exactly one synthesis per content address across both services** —
  proven from the cache journal, which records computed results only
  (cache hits are never re-journaled), so one line per key is the
  store-level single-flight working end to end,
* ``/stats`` totals agree with what the clients observed on the wire.

The two services' synthesis workers are child *processes*, so the
cross-process claim files are exercised for real even though the two
fronts live in this test process.
"""

import threading

import pytest

from repro.api.task import SynthesisTask
from repro.explore import ResultCache
from repro.serve import Client, start_server
from repro.serve.service import SynthesisService
from repro.store import iter_journal_payloads

#: Unique synthesis tasks; every client submits all of them, so every
#: key is contended by every client on both services.
POWERS = (10.0, 11.0, 12.0, 14.0, 16.0)

#: Client threads per service front.
CLIENTS_PER_SERVICE = 2


def specs():
    return [
        {"graph": "hal", "latency": 17, "power_budget": power}
        for power in POWERS
    ]


def expected_keys():
    return {
        SynthesisTask(graph="hal", latency=17, power_budget=power).cache_key()
        for power in POWERS
    }


@pytest.fixture()
def two_services(tmp_path):
    cache_dir = tmp_path / "cache"
    handles = []
    for name in ("a", "b"):
        service = SynthesisService(
            tmp_path / f"state-{name}",
            cache=ResultCache(cache_dir),
            workers=2,
        )
        handles.append(start_server(service=service))
    try:
        yield handles, cache_dir
    finally:
        for handle in handles:
            handle.close()


def _drive(url, results, errors):
    try:
        client = Client(url)
        accepted = client.submit(specs())
        final = client.wait(accepted, timeout=120)
        results.append((accepted, final))
    except Exception as exc:  # noqa: BLE001 - surfaced by the main thread
        errors.append(exc)


def test_two_services_share_one_cache_without_duplicate_synthesis(two_services):
    handles, cache_dir = two_services
    results, errors = [], []
    threads = [
        threading.Thread(target=_drive, args=(handle.url, results, errors))
        for handle in handles
        for _client in range(CLIENTS_PER_SERVICE)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(180)
        assert not thread.is_alive(), "client thread wedged"
    assert errors == []

    total_jobs = len(handles) * CLIENTS_PER_SERVICE * len(POWERS)

    # -------- zero dropped or duplicated jobs ------------------------- #
    accepted_ids = [entry["id"] for accepted, _ in results for entry in accepted]
    assert len(results) == len(threads)
    assert len(accepted_ids) == total_jobs
    finals = [state for _, final in results for state in final]
    assert len(finals) == total_jobs
    assert all(state["state"] == "done" for state in finals)
    assert all(state["record"]["feasible"] for state in finals)
    for accepted, final in results:
        assert [s["id"] for s in final] == [e["id"] for e in accepted]

    # -------- exactly one synthesis per content address --------------- #
    journaled = [key for key, _record in iter_journal_payloads(cache_dir)]
    assert sorted(journaled) == sorted(set(journaled)), (
        "a content address was synthesized more than once across the two "
        f"services: {journaled}"
    )
    assert set(journaled) == expected_keys()

    # -------- /stats agrees with the wire ----------------------------- #
    stats = [Client(handle.url).stats() for handle in handles]
    assert sum(s["summary"]["total"] for s in stats) == total_jobs
    assert sum(s["cache"]["hits"] + s["cache"]["misses"] for s in stats) == total_jobs
    assert sum(s["cache"]["writes"] for s in stats) == len(POWERS)
    for s in stats:
        assert s["queue"]["jobs"].get("failed", 0) == 0


def test_duplicate_submissions_within_one_service_hit_cache(tmp_path):
    with start_server(state_dir=tmp_path, workers=2) as handle:
        client = Client(handle.url)
        accepted = client.submit(specs() * 3)
        final = client.wait(accepted, timeout=120)
        assert all(state["state"] == "done" for state in final)
        cached = [state["record"]["cached"] for state in final]
        assert cached.count(False) == len(POWERS)
        assert cached.count(True) == len(POWERS) * 2
        journaled = [k for k, _ in iter_journal_payloads(handle.service.cache.root)]
        assert sorted(journaled) == sorted(expected_keys())
