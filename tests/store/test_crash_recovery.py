"""Crash-recovery tests: torn appends, interrupted compactions.

Each test manufactures the exact on-disk state a crash leaves behind —
a half-written frame at the segment tail, a leftover ``.tmp`` from a
compaction that died before ``os.replace``, a ``consumed-*.seg`` whose
compaction never finished — and asserts a fresh store instance recovers
every durable record.
"""

import os

from repro.store import ColumnarStore, StoreQuery
from repro.store.format import FRAME_MAGIC

from .conftest import fill, make_payload


def shard_dirs(store):
    root = store.root / "shards"
    return sorted(p for p in root.iterdir() if p.is_dir()) if root.is_dir() else []


def torn_shards(store):
    """Append garbage to every shard's live segment; return how many."""
    torn = 0
    for shard in shard_dirs(store):
        seg = shard / "append.seg"
        if seg.exists():
            with open(seg, "ab") as handle:
                handle.write(FRAME_MAGIC + b"\x40\x00\x00\x00half-a-frame")
            torn += 1
    return torn


class TestTornAppend:
    def test_torn_tail_loses_only_the_torn_frame(self, columnar):
        expected = fill(columnar, 20)
        assert torn_shards(columnar) > 0
        reopened = ColumnarStore(columnar.root)
        assert reopened.count() == 20
        for key in expected:
            assert reopened.get(key) is not None

    def test_truncated_mid_frame_tail_is_dropped(self, columnar):
        expected = fill(columnar, 20)
        clipped = 0
        lost_keys = set(expected)
        for shard in shard_dirs(columnar):
            seg = shard / "append.seg"
            size = seg.stat().st_size
            # chop into the *last* frame: every earlier frame stays valid
            with open(seg, "rb+") as handle:
                handle.truncate(size - 7)
            clipped += 1
        assert clipped > 0
        reopened = ColumnarStore(columnar.root)
        survivors = set(reopened.keys())
        # exactly one frame per clipped shard is gone, none others
        assert len(survivors) == 20 - clipped
        assert survivors < lost_keys

    def test_writer_repairs_torn_tail_before_appending(self, columnar):
        fill(columnar, 20)
        torn_shards(columnar)
        writer = ColumnarStore(columnar.root)
        key, payload = make_payload(1000)
        writer.put(key, payload)  # repairs that shard's tail, then appends
        assert writer.get(key) is not None
        assert writer.count() == 21

    def test_live_reader_follows_repairs_and_rotations(self, columnar):
        """A long-lived reader reads each segment on from its last whole
        frame: past a torn tail, its repair, and another instance's
        compaction rotating the segment away."""
        expected = fill(columnar, 20)
        reader = ColumnarStore(columnar.root)
        assert reader.count() == 20
        torn_shards(columnar)
        assert reader.count() == 20
        writer = ColumnarStore(columnar.root)
        for index in range(100, 140):
            key, payload = make_payload(index)
            writer.put(key, payload)  # repairs each torn tail, then appends
            expected[key] = payload
        assert reader.count() == 60
        writer.compact()
        key, payload = make_payload(200)
        writer.put(key, payload)
        expected[key] = payload
        assert reader.count() == 61
        for key, payload in expected.items():
            assert reader.get(key)["record"] == payload["record"]

    def test_compaction_after_torn_tail_keeps_all_valid_frames(self, columnar):
        expected = fill(columnar, 20)
        torn_shards(columnar)
        reopened = ColumnarStore(columnar.root)
        report = reopened.compact()
        assert report["compacted"] == 20
        assert set(reopened.keys()) == set(expected)


class TestInterruptedCompaction:
    def test_leftover_tmp_is_ignored_and_cleaned(self, columnar):
        expected = fill(columnar, 10)
        # a compaction that died before os.replace leaves only a .tmp
        for shard in shard_dirs(columnar):
            (shard / "compact-00000000.col.tmp").write_bytes(b"torn compacted write")
        reopened = ColumnarStore(columnar.root)
        assert set(reopened.keys()) == set(expected)
        reopened.compact()
        for shard in shard_dirs(reopened):
            assert not list(shard.glob("*.tmp"))
        assert set(ColumnarStore(columnar.root).keys()) == set(expected)

    def test_crash_after_rotation_loses_nothing(self, columnar):
        """Rotation happened, merge never did: consumed-*.seg sticks around."""
        expected = fill(columnar, 10)
        rotated = 0
        for shard in shard_dirs(columnar):
            seg = shard / "append.seg"
            if seg.exists():
                os.rename(seg, shard / "consumed-00000000.seg")
                rotated += 1
        assert rotated > 0
        reopened = ColumnarStore(columnar.root)
        assert set(reopened.keys()) == set(expected)
        # and the *next* compaction merges the leftovers durably
        report = reopened.compact()
        assert report["compacted"] == 10
        for shard in shard_dirs(reopened):
            assert not list(shard.glob("consumed-*.seg"))
        assert set(ColumnarStore(columnar.root).keys()) == set(expected)

    def test_crash_before_old_generation_removal(self, columnar):
        """Both generations present: the newest valid one wins."""
        expected = fill(columnar, 10)
        columnar.compact()
        key, payload = make_payload(50)
        columnar.put(key, payload)
        store2 = ColumnarStore(columnar.root)
        store2.compact()
        # resurrect the state where gen N survived next to gen N+1
        for shard in shard_dirs(store2):
            gens = sorted(shard.glob("compact-*.col"))
            if gens:
                stale = shard / "compact-00000000.col"
                if not stale.exists():
                    stale.write_bytes(b"stale but never read: gen 1 is newer")
        reopened = ColumnarStore(columnar.root)
        assert set(reopened.keys()) == set(expected) | {key}

    def test_corrupt_newest_generation_falls_back(self, columnar):
        """A torn generation file is skipped for the newest older one."""
        expected = fill(columnar, 10)
        columnar.compact()
        for shard in shard_dirs(columnar):
            for gen in shard.glob("compact-*.col"):
                # fake a *newer* generation that is unreadable garbage
                (shard / "compact-00000099.col").write_bytes(b"\x00" * 32)
        reopened = ColumnarStore(columnar.root)
        assert set(reopened.keys()) == set(expected)
        for key in expected:
            assert reopened.get(key) is not None

    def test_queries_survive_every_crash_state(self, columnar):
        for index in range(10):
            key, payload = make_payload(index, family="hal", power=10.0 + index)
            columnar.put(key, payload)
        columnar.compact()
        for index in range(10, 14):
            key, payload = make_payload(index, family="fir", power=25.0)
            columnar.put(key, payload)
        torn_shards(columnar)
        for shard in shard_dirs(columnar):
            (shard / "compact-00000050.col.tmp").write_bytes(b"garbage")
        reopened = ColumnarStore(columnar.root)
        assert len(list(reopened.scan(StoreQuery(family="fir")))) == 4
        assert len(list(reopened.scan(StoreQuery(power=(10.0, 19.0))))) == 10
