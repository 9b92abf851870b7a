"""Concurrent multi-process writers on the columnar store.

Several worker processes hammer one columnar store (interleaved appends,
one mid-stream compaction) while the same records land in a legacy store
from the parent — afterwards both must answer identically.  Writers that
make their first ``put`` into a fresh directory at the same moment must
all succeed.
"""

import json
import multiprocessing
from pathlib import Path

import pytest

from repro.store import ColumnarStore, LegacyStore, StoreQuery

from .conftest import make_payload

WORKERS = 4
PER_WORKER = 30
FRESH_TRIALS = 40


def _write_slice(root, worker):
    """One worker process: append its slice of records, compact halfway."""
    store = ColumnarStore(root)
    for index in range(worker * PER_WORKER, (worker + 1) * PER_WORKER):
        key, payload = make_payload(index, family=f"fam{index % 3}", power=float(index % 7))
        store.put(key, payload)
        if worker == 0 and index == PER_WORKER // 2:
            store.compact()  # races the other writers on purpose
    return worker


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("concurrent")
    columnar_root = root / "col"
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(WORKERS) as pool:
        done = pool.starmap(
            _write_slice, [(str(columnar_root), worker) for worker in range(WORKERS)]
        )
    assert sorted(done) == list(range(WORKERS))

    legacy = LegacyStore(root / "leg")
    for index in range(WORKERS * PER_WORKER):
        key, payload = make_payload(index, family=f"fam{index % 3}", power=float(index % 7))
        legacy.put(key, payload)
    return ColumnarStore(columnar_root), legacy


class TestMultiProcessParity:
    def test_no_record_lost(self, stores):
        columnar, legacy = stores
        assert columnar.count() == legacy.count() == WORKERS * PER_WORKER
        assert sorted(columnar.keys()) == sorted(legacy.keys())

    def test_records_bit_identical(self, stores):
        columnar, legacy = stores
        for key in legacy.keys():
            left = columnar.get(key)["record"]
            right = legacy.get(key)["record"]
            assert json.dumps(left, sort_keys=True) == json.dumps(right, sort_keys=True)

    def test_queries_agree(self, stores):
        columnar, legacy = stores
        for query in (
            StoreQuery(family="fam1"),
            StoreQuery(power=(2.0, 4.0)),
            StoreQuery(family="fam0", power=(None, 3.0)),
        ):
            assert sorted(r.key for r in columnar.scan(query)) == sorted(
                r.key for r in legacy.scan(query)
            )

    def test_final_compaction_changes_no_answer(self, stores):
        columnar, legacy = stores
        columnar.compact()
        reopened = ColumnarStore(columnar.root)
        assert reopened.count() == WORKERS * PER_WORKER
        assert sorted(reopened.keys()) == sorted(legacy.keys())


def _first_puts(root, worker, barrier):
    """One writer: per trial, meet the others, then put into a fresh store."""
    try:
        for trial in range(FRESH_TRIALS):
            barrier.wait(timeout=30)
            key, payload = make_payload(trial * WORKERS + worker)
            ColumnarStore(Path(root) / f"trial-{trial}").put(key, payload)
    except BaseException:
        barrier.abort()  # release the others instead of leaving them waiting
        raise


class TestFreshDirectoryWriters:
    def test_simultaneous_first_puts_all_land(self, tmp_path):
        """Every first writer publishes the manifest; none may trip on
        another's temp file."""
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(WORKERS)
        writers = [
            ctx.Process(target=_first_puts, args=(str(tmp_path), worker, barrier))
            for worker in range(WORKERS)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(120)
        assert [writer.exitcode for writer in writers] == [0] * WORKERS
        for trial in range(FRESH_TRIALS):
            root = tmp_path / f"trial-{trial}"
            assert json.loads((root / "store.json").read_text())["backend"] == "columnar"
            assert sorted(p.name for p in root.iterdir()) == ["shards", "store.json"]
            store = ColumnarStore(root)
            for worker in range(WORKERS):
                key, payload = make_payload(trial * WORKERS + worker)
                assert store.get(key) == {"key": key, "record": payload["record"]}
