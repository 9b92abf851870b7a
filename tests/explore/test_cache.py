"""Unit tests for the content-addressed result cache (repro.explore.cache)."""

import json

import pytest

from repro.api import Pipeline, SynthesisTask, run_batch, run_task
from repro.explore import JOURNAL_NAME, ResultCache, load_journal
from repro.store import ColumnarStore, LegacyStore, StoreError
from repro.store.format import iter_frames


def hal_task(power=12.0, **kwargs):
    return SynthesisTask(graph="hal", latency=17, power_budget=power, **kwargs)


class TestResultCacheBasics:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = hal_task()
        assert cache.get(task) is None
        record = run_task(task, cache=cache)
        assert not record.cached
        assert cache.stats.misses == 2 and cache.stats.writes == 1

        hit = cache.get(task)
        assert hit is not None and hit.cached
        assert hit.feasible and hit.area == record.area
        assert hit.peak_power == record.peak_power
        assert hit.result is None  # scalars only

    def test_hit_survives_a_fresh_cache_instance(self, tmp_path):
        task = hal_task()
        run_task(task, cache=ResultCache(tmp_path))
        reopened = ResultCache(tmp_path)
        hit = reopened.get(hal_task())  # equal spec, different object
        assert hit is not None and hit.cached
        assert reopened.stats.hits == 1

    def test_infeasible_results_are_cached_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = hal_task(power=2.0)
        record = run_task(task, cache=cache)
        assert not record.feasible
        hit = cache.get(task)
        assert hit is not None and not hit.feasible and hit.cached
        assert hit.error_type == record.error_type

    def test_distinct_specs_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_task(hal_task(12.0), cache=cache)
        assert cache.get(hal_task(13.0)) is None
        assert cache.get(SynthesisTask(graph="hal", latency=18, power_budget=12.0)) is None

    def test_label_does_not_change_the_address(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_task(hal_task(label="first"), cache=cache)
        assert cache.get(hal_task(label="second")) is not None

    def test_hit_carries_the_callers_task_not_the_stored_one(self, tmp_path):
        """The address ignores spelling and label, so the stored spec may
        be a differently-spelled twin; the caller must get its own back."""
        cache = ResultCache(tmp_path)
        run_task(hal_task(label="sweep-spelling"), cache=cache)
        mine = hal_task(label="batch-caseA")
        hit = run_task(mine, cache=cache)
        assert hit.cached
        assert hit.task is mine
        assert hit.task.label == "batch-caseA"

    def test_tilde_in_root_is_expanded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = ResultCache("~/repro-cache")
        assert "~" not in str(cache.root)
        assert str(cache.root).startswith(str(tmp_path))

    def test_len_counts_objects_on_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        run_task(hal_task(12.0), cache=cache)
        run_task(hal_task(13.0), cache=cache)
        assert len(cache) == 2

    def test_corrupt_object_file_is_a_miss(self, tmp_path):
        """A stored frame whose bytes rotted fails its CRC: a miss."""
        cache = ResultCache(tmp_path)
        task = hal_task()
        key = cache.put(task, run_task(task))
        segment = tmp_path / "shards" / key[0] / "append.seg"
        data = bytearray(segment.read_bytes())
        data[-2] ^= 0xFF
        segment.write_bytes(bytes(data))
        fresh = ResultCache(tmp_path)
        assert fresh.get(task) is None
        assert fresh.stats.misses == 1

    def test_write_only_cache_never_answers(self, tmp_path):
        recorder = ResultCache(tmp_path, read=False)
        task = hal_task()
        first = run_task(task, cache=recorder)
        second = run_task(task, cache=recorder)
        assert not first.cached and not second.cached
        assert recorder.stats.hits == 0
        # but what it recorded is visible to a reading cache
        assert ResultCache(tmp_path).get(task) is not None

    def test_custom_pipeline_bypasses_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = hal_task()
        run_task(task, cache=cache, pipeline=Pipeline.default())
        assert cache.stats.lookups == 0 and cache.stats.writes == 0
        assert cache.get(task) is None

    def test_live_override_of_a_named_spec_bypasses_the_cache(self, tmp_path, library):
        """A named graph spec run against a *different* live graph must not
        file its result under the registered benchmark's address."""
        from repro.ir import CDFGBuilder

        builder = CDFGBuilder("hal")  # claims hal's name, isn't hal
        x = builder.input("x")
        builder.output("y", builder.add("a", x, x))
        impostor = builder.build()

        cache = ResultCache(tmp_path)
        task = hal_task()
        record = run_task(task, cdfg=impostor, cache=cache)
        assert record.feasible
        assert cache.stats.writes == 0
        assert cache.get(hal_task()) is None  # the real hal point is unpolluted

    def test_any_live_override_bypasses_the_cache(self, tmp_path, library):
        """Same hazard with an *inline* spec: a mismatched live override
        must never be filed under the spec's content address."""
        from repro.suite import fir_cdfg, hal_cdfg

        inline_hal = SynthesisTask.of(hal_cdfg(), latency=17, power_budget=40.0)
        cache = ResultCache(tmp_path)
        run_task(inline_hal, cdfg=fir_cdfg(), cache=cache)  # fir, not hal
        assert cache.stats.writes == 0
        honest = run_task(
            SynthesisTask.of(hal_cdfg(), latency=17, power_budget=40.0), cache=cache
        )
        assert honest.feasible and not honest.cached

    def test_inline_spec_with_matching_live_objects_still_caches(self, tmp_path, library):
        from repro.suite import hal_cdfg
        from repro.synthesis.explore import probe_point

        cache = ResultCache(tmp_path)
        record = probe_point(hal_cdfg(), library, 17, 12.0, cache=cache)
        assert record.feasible and cache.stats.writes == 1
        assert probe_point(hal_cdfg(), library, 17, 12.0, cache=cache).cached


class TestJournal:
    def test_every_computed_record_is_journaled(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_task(hal_task(12.0), cache=cache)
        run_task(hal_task(2.0), cache=cache)  # infeasible
        records = load_journal(tmp_path)
        assert len(records) == 2
        assert sorted(r.feasible for r in records) == [False, True]

    def test_hits_are_not_re_journaled(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_task(hal_task(), cache=cache)
        run_task(hal_task(), cache=cache)  # hit
        assert len(load_journal(tmp_path)) == 1

    def test_load_journal_skips_a_torn_tail(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_task(hal_task(), cache=cache)
        with open(cache.journal_path, "a") as handle:
            handle.write('{"key": "abc", "record": {"trunc')  # killed mid-write
        records = load_journal(tmp_path)
        assert len(records) == 1

    def test_load_journal_accepts_file_or_directory(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_task(hal_task(), cache=cache)
        assert len(load_journal(tmp_path / JOURNAL_NAME)) == 1
        assert load_journal(tmp_path / "nowhere") == []


def _summary(record):
    return (
        record.feasible,
        record.area,
        record.fu_area,
        record.peak_power,
        record.latency,
        record.backtracks,
        record.error_type,
    )


class TestBatchWithCache:
    BUDGETS = [2.0, 9.0, 12.0, 20.0]

    def tasks(self):
        return [hal_task(p) for p in self.BUDGETS]

    def test_sequential_parity_cold_vs_warm(self, tmp_path):
        plain = run_batch(self.tasks(), keep_results=False)
        cold_cache = ResultCache(tmp_path)
        cold = run_batch(self.tasks(), cache=cold_cache, keep_results=False)
        warm = run_batch(self.tasks(), cache=ResultCache(tmp_path), keep_results=False)
        for a, b, c in zip(plain, cold, warm):
            assert _summary(a) == _summary(b) == _summary(c)
        assert not any(r.cached for r in cold)
        assert all(r.cached for r in warm)

    def test_parallel_parity_with_sequential_cold_and_warm(self, tmp_path):
        sequential = run_batch(self.tasks(), keep_results=False)
        par_cold = run_batch(
            self.tasks(), jobs=2, keep_results=False, cache=ResultCache(tmp_path / "a")
        )
        # same cache dir again: every point comes back from the cache
        par_warm = run_batch(
            self.tasks(), jobs=2, keep_results=False, cache=ResultCache(tmp_path / "a")
        )
        # parallel warm against a cache populated *sequentially*
        seq_cache = ResultCache(tmp_path / "b")
        run_batch(self.tasks(), keep_results=False, cache=seq_cache)
        cross_warm = run_batch(
            self.tasks(), jobs=2, keep_results=False, cache=ResultCache(tmp_path / "b")
        )
        for s, a, b, c in zip(sequential, par_cold, par_warm, cross_warm):
            assert _summary(s) == _summary(a) == _summary(b) == _summary(c)
        assert all(r.cached for r in par_warm)
        assert all(r.cached for r in cross_warm)

    def test_parallel_workers_populate_the_shared_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch(self.tasks(), jobs=2, keep_results=False, cache=cache)
        # the parent never computed anything, yet the points are on disk
        assert len(cache) == len(self.BUDGETS)
        assert len(load_journal(tmp_path)) == len(self.BUDGETS)

    def test_warm_parallel_batch_answers_from_the_parent(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch(self.tasks(), jobs=2, keep_results=False, cache=cache)
        warm_cache = ResultCache(tmp_path)
        records = run_batch(self.tasks(), jobs=2, keep_results=False, cache=warm_cache)
        assert all(r.cached for r in records)
        assert warm_cache.stats.hits == len(self.BUDGETS)
        assert warm_cache.stats.misses == 0

    def test_duplicate_specs_synthesize_once_in_a_cold_parallel_batch(self, tmp_path):
        twin_a = hal_task(12.0, label="a")
        twin_b = hal_task(12.0, label="b")  # same content address
        other = hal_task(9.0)
        records = run_batch(
            [twin_a, other, twin_b],
            jobs=2,
            keep_results=False,
            cache=ResultCache(tmp_path),
        )
        assert [r.task.label for r in records] == ["a", None, "b"]
        assert records[0].area == records[2].area
        # the twin shares the computed record but was not *resumed*
        assert not any(r.cached for r in records)
        assert len(load_journal(tmp_path)) == 2  # only two points computed

    def test_order_preserved_with_partial_warm_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        # pre-warm only two interior points
        run_task(hal_task(9.0), cache=cache)
        run_task(hal_task(20.0), cache=cache)
        records = run_batch(
            self.tasks(), jobs=2, keep_results=False, cache=ResultCache(tmp_path)
        )
        assert [r.task.power_budget for r in records] == self.BUDGETS
        assert [r.cached for r in records] == [False, True, False, True]
        plain = run_batch(self.tasks(), keep_results=False)
        for a, b in zip(plain, records):
            assert _summary(a) == _summary(b)


class TestObjectFileFormat:
    def test_object_file_is_stable_json_with_key(self, tmp_path):
        """One frame per record, filed under its content address, its
        record body canonical JSON; a fresh handle round-trips it."""
        cache = ResultCache(tmp_path)
        task = hal_task()
        key = cache.put(task, run_task(task))
        segment = tmp_path / "shards" / key[0] / "append.seg"
        ((_, frame),) = iter_frames(segment.read_bytes())
        assert frame.key == key == task.cache_key()
        canonical = json.dumps(frame.record(), sort_keys=True, separators=(",", ":"))
        assert frame.blob == canonical.encode("utf-8")
        payload = ColumnarStore(tmp_path).get(key)
        assert payload == {"key": key, "record": frame.record()}
        assert payload["record"]["feasible"] is True
        assert "result" not in payload["record"]


class TestStoreFacade:
    """The cache is a facade over repro.store's columnar layout."""

    def test_columnar_backend_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.store.backend == "columnar"
        task = hal_task()
        record = run_task(task, cache=cache)
        hit = cache.get(task)
        assert hit is not None and hit.cached and hit.area == record.area
        manifest = json.loads((tmp_path / "store.json").read_text())
        assert manifest["backend"] == "columnar"
        assert not (tmp_path / "objects").exists()

    def test_columnar_hit_survives_a_fresh_instance(self, tmp_path):
        run_task(hal_task(), cache=ResultCache(tmp_path))
        reopened = ResultCache(tmp_path)
        hit = reopened.get(hal_task())
        assert hit is not None and hit.cached

    def test_columnar_len_is_maintained(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        run_task(hal_task(12.0), cache=cache)
        run_task(hal_task(13.0), cache=cache)
        assert len(cache) == 2
        cache.store.compact()
        assert len(cache) == 2

    def test_columnar_journal_kept_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_task(hal_task(), cache=cache)
        lines = (tmp_path / JOURNAL_NAME).read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["record"]["feasible"] is True

    def test_record_for_key_memoizes_the_disk_read(self, tmp_path):
        task = hal_task()
        key = ResultCache(tmp_path).put(task, run_task(task))
        cache = ResultCache(tmp_path)
        assert key not in cache._memory
        record = cache.record_for_key(key)
        assert record is not None and record["feasible"] is True
        assert key in cache._memory  # second call never touches the disk
        assert cache.record_for_key(key)["feasible"] is True

    def test_parallel_batch_leaves_a_columnar_store(self, tmp_path):
        tasks = [hal_task(p) for p in (9.0, 12.0, 20.0)]
        run_batch(tasks, jobs=2, keep_results=False, cache=ResultCache(tmp_path))
        manifest = json.loads((tmp_path / "store.json").read_text())
        assert manifest["backend"] == "columnar"
        assert not (tmp_path / "objects").exists()
        store = ColumnarStore(tmp_path)
        assert sorted(store.keys()) == sorted(t.cache_key() for t in tasks)

    def test_legacy_directory_is_refused(self, tmp_path):
        task = hal_task()
        LegacyStore(tmp_path).put(
            task.cache_key(), {"key": task.cache_key(), "record": run_task(task).to_dict()}
        )
        with pytest.raises(StoreError, match="repro store migrate"):
            ResultCache(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["objects"]

    def test_migrated_legacy_directory_answers_hits(self, tmp_path):
        from repro.cli import main

        tasks = [hal_task(p) for p in (2.0, 12.0)]
        legacy = LegacyStore(tmp_path / "old")
        for task in tasks:
            legacy.put(
                task.cache_key(),
                {"key": task.cache_key(), "record": run_task(task).to_dict()},
            )
        assert main(["store", "migrate", str(tmp_path / "old"), str(tmp_path / "new")]) == 0
        cache = ResultCache(tmp_path / "new")
        hits = [cache.get(task) for task in tasks]
        assert all(hit is not None and hit.cached for hit in hits)
        assert [hit.feasible for hit in hits] == [False, True]
        assert hits[1].area == 528.0
        assert cache.stats.hits == 2


class TestIterJournal:
    def test_streaming_matches_load_journal(self, tmp_path):
        from repro.explore import iter_journal

        cache = ResultCache(tmp_path)
        run_task(hal_task(9.0), cache=cache)
        run_task(hal_task(12.0), cache=cache)
        streamed = list(iter_journal(tmp_path))
        loaded = load_journal(tmp_path)
        assert len(streamed) == len(loaded) == 2
        for a, b in zip(streamed, loaded):
            assert a.task.power_budget == b.task.power_budget and a.area == b.area

    def test_iter_journal_is_lazy(self, tmp_path):
        from repro.explore import iter_journal

        run_task(hal_task(), cache=ResultCache(tmp_path))
        iterator = iter_journal(tmp_path)
        first = next(iterator)
        assert first.feasible
        assert next(iterator, None) is None

    def test_iter_journal_skips_torn_tail(self, tmp_path):
        from repro.explore import iter_journal

        cache = ResultCache(tmp_path)
        run_task(hal_task(), cache=cache)
        with open(tmp_path / JOURNAL_NAME, "a") as handle:
            handle.write('{"key": "torn')
        assert len(list(iter_journal(tmp_path))) == 1
