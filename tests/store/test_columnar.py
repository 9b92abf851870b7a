"""Unit tests for the columnar backend: round trips, queries, compaction."""

import json

import pytest

from repro.store import (
    ColumnarStore,
    LegacyStore,
    StoreError,
    StoreQuery,
    detect_backend,
    open_store,
)

from .conftest import fill, make_payload, synthetic_key


def canonical(payload):
    return json.dumps(payload["record"], sort_keys=True, separators=(",", ":"))


class TestRoundTrip:
    def test_put_get_before_compaction(self, columnar):
        expected = fill(columnar, 25)
        for key, payload in expected.items():
            got = columnar.get(key)
            assert got is not None
            assert canonical(got) == canonical(payload)

    def test_put_get_after_compaction(self, columnar):
        expected = fill(columnar, 25)
        report = columnar.compact()
        assert report["backend"] == "columnar"
        assert report["compacted"] == 25
        for key, payload in expected.items():
            assert canonical(columnar.get(key)) == canonical(payload)

    def test_survives_a_fresh_instance(self, columnar):
        expected = fill(columnar, 10)
        columnar.compact()
        reopened = ColumnarStore(columnar.root)
        for key, payload in expected.items():
            assert canonical(reopened.get(key)) == canonical(payload)

    def test_overlay_after_compaction(self, columnar):
        """Records appended after a compaction are merged over the gen file."""
        first = fill(columnar, 10)
        columnar.compact()
        key, payload = make_payload(99, family="fir")
        columnar.put(key, payload)
        assert canonical(columnar.get(key)) == canonical(payload)
        assert columnar.count() == 11
        assert set(columnar.keys()) == set(first) | {key}

    def test_rewrite_same_key_tail_wins(self, columnar):
        key, payload = make_payload(0, area=100.0)
        columnar.put(key, payload)
        _, newer = make_payload(0, area=200.0)
        columnar.put(key, newer)
        assert columnar.get(key)["record"]["area"] == 200.0
        assert columnar.count() == 1
        columnar.compact()
        assert columnar.get(key)["record"]["area"] == 200.0
        assert columnar.count() == 1

    def test_missing_key_is_none(self, columnar):
        fill(columnar, 3)
        assert columnar.get(synthetic_key(999)) is None

    def test_records_shard_by_key_prefix(self, columnar):
        fill(columnar, 64)
        shards = sorted(p.name for p in (columnar.root / "shards").iterdir())
        assert len(shards) > 1
        for shard in shards:
            assert len(shard) == 1 and shard in "0123456789abcdef"

    def test_bad_key_rejected(self, columnar):
        _, payload = make_payload(0)
        with pytest.raises(StoreError):
            columnar.put("not-a-hex-address", payload)

    def test_payload_without_record_rejected(self, columnar):
        with pytest.raises(StoreError):
            columnar.put(synthetic_key(0), {"key": synthetic_key(0)})


class TestCountAndStats:
    def test_count_tracks_puts_and_compaction(self, columnar):
        assert columnar.count() == 0
        fill(columnar, 12)
        assert columnar.count() == 12
        columnar.compact()
        assert columnar.count() == 12

    def test_count_sees_external_writers(self, columnar):
        fill(columnar, 5)
        assert columnar.count() == 5
        other = ColumnarStore(columnar.root)
        key, payload = make_payload(77)
        other.put(key, payload)
        assert columnar.count() == 6

    def test_store_stats_shape(self, columnar):
        fill(columnar, 8)
        columnar.compact()
        fill(columnar, 2, family="fir")  # re-put two records into the tail
        stats = columnar.store_stats()
        assert stats["backend"] == "columnar"
        assert stats["records"] == 8
        assert stats["shard_width"] == 1
        assert stats["bytes"] > 0
        assert sum(s["compacted_rows"] for s in stats["shards"]) == 8
        assert sum(s["tail_rows"] for s in stats["shards"]) == 2


class TestScan:
    QUERIES = {
        "family": StoreQuery(family="hal"),
        "range": StoreQuery(power=(None, 13.0)),
        "combo": StoreQuery(family="hal", feasible=True, latency=17),
    }

    @pytest.fixture
    def populated(self, columnar):
        for index in range(10):
            key, payload = make_payload(index, family="hal", power=10.0 + index)
            columnar.put(key, payload)
        for index in range(10, 16):
            key, payload = make_payload(
                index,
                family="fir",
                scheduler="asap",
                latency=20,
                power=30.0,
                feasible=False,
                error_type="InfeasibleError",
            )
            columnar.put(key, payload)
        return columnar

    def test_empty_query_returns_everything(self, populated):
        assert len(list(populated.scan(StoreQuery()))) == 16
        assert len(list(populated.scan())) == 16

    def test_family_filter(self, populated):
        rows = list(populated.scan(StoreQuery(family="fir")))
        assert len(rows) == 6
        assert all(row.family == "fir" for row in rows)

    def test_scheduler_and_feasible_filters(self, populated):
        assert len(list(populated.scan(StoreQuery(scheduler="asap")))) == 6
        assert len(list(populated.scan(StoreQuery(feasible=True)))) == 10
        assert len(list(populated.scan(StoreQuery(feasible=False)))) == 6

    def test_power_range_filter(self, populated):
        rows = list(populated.scan(StoreQuery(power=(12.0, 14.0))))
        assert len(rows) == 3
        assert all(12.0 <= row.power_budget <= 14.0 for row in rows)

    def test_exact_latency_filter(self, populated):
        assert len(list(populated.scan(StoreQuery(latency=20)))) == 6

    def test_filters_identical_after_compaction(self, populated):
        before = {
            name: sorted(row.key for row in populated.scan(query))
            for name, query in self.QUERIES.items()
        }
        populated.compact()
        for name, query in self.QUERIES.items():
            assert sorted(row.key for row in populated.scan(query)) == before[name]

    def test_scan_with_records_round_trips(self, populated):
        rows = list(populated.scan(StoreQuery(family="fir"), with_records=True))
        assert len(rows) == 6
        for row, record in rows:
            assert record["error_type"] == "InfeasibleError"
            assert record["task"]["graph"] == row.family == "fir"

    def test_inverted_range_rejected(self):
        with pytest.raises(StoreError):
            StoreQuery(power=(14.0, 12.0))

    def test_scan_parity_with_legacy(self, columnar, legacy):
        for store in (columnar, legacy):
            fill(store, 20)
        query = StoreQuery(family="hal", power=(None, 12.5))
        assert sorted(r.key for r in columnar.scan(query)) == sorted(
            r.key for r in legacy.scan(query)
        )


class TestBackendSelection:
    def test_fresh_dir_detects_nothing(self, tmp_path):
        assert detect_backend(tmp_path) is None

    def test_columnar_manifest_detected(self, tmp_path):
        fill(ColumnarStore(tmp_path), 1)
        assert detect_backend(tmp_path) == "columnar"
        assert open_store(tmp_path).backend == "columnar"

    def test_legacy_layout_detected(self, tmp_path):
        fill(LegacyStore(tmp_path), 1)
        assert detect_backend(tmp_path) == "legacy"
        assert open_store(tmp_path).backend == "legacy"

    def test_fresh_dir_defaults_to_columnar(self, tmp_path):
        store = open_store(tmp_path / "x")
        assert store.backend == "columnar"
        fill(store, 1)
        assert (tmp_path / "x" / "store.json").exists()
        assert not (tmp_path / "x" / "objects").exists()

    def test_conflicting_backend_refused(self, tmp_path):
        """A columnar store never opens over (and writes next to) a
        legacy ``objects/`` tree."""
        fill(LegacyStore(tmp_path), 1)
        with pytest.raises(StoreError, match="migrate"):
            ColumnarStore(tmp_path)
        assert not (tmp_path / "store.json").exists()

    def test_unknown_backend_refused(self, tmp_path):
        (tmp_path / "store.json").write_text('{"backend": "parquet"}')
        with pytest.raises(StoreError, match="parquet"):
            open_store(tmp_path)

    def test_shard_width_conflict_refused(self, tmp_path):
        fill(ColumnarStore(tmp_path, shard_width=1), 1)
        with pytest.raises(StoreError):
            ColumnarStore(tmp_path, shard_width=2)
