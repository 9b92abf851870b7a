"""The sharded, append-then-compact columnar result store.

Layout under one root::

    <root>/store.json                          backend manifest
    <root>/shards/<p>/append.seg               CRC-framed append segment
    <root>/shards/<p>/consumed-*.seg           segments a compaction rotated
    <root>/shards/<p>/compact-<gen>.col        sorted, indexed column file

Records shard by the first ``shard_width`` hex chars of their content
address (16 shards at the default width of 1), so concurrent writers
contend on a shard, not the store, and a scan whose
:class:`~repro.store.base.StoreQuery` carries a ``key_prefix`` skips
whole shards without opening them.

**Write path.**  :meth:`ColumnarStore.put` encodes one
:class:`~repro.store.format.Frame` and lands it with a single ``write``
to an ``O_APPEND`` descriptor while holding a shared ``flock`` — many
processes append to one segment without interleaving, and a writer that
raced a compaction's segment rotation detects the inode swap and
retries against the fresh segment.  A crash mid-write leaves a torn
tail; the next writer truncates it away (under the exclusive lock)
before appending, and readers simply stop at it.

**Compaction.**  :meth:`ColumnarStore.compact` rotates ``append.seg``
aside under an exclusive lock (so no writer is mid-frame), merges every
consumed segment with the previous compacted generation — newest wins
per key, though same-key records are identical by construction — and
writes the next ``compact-<gen>.col`` via temp-file + ``os.replace``.
Every intermediate state is recoverable: a leftover ``.tmp`` is ignored
and deleted, a ``consumed-*.seg`` that outlived a crash is still read
(and merged by the next compaction), an older generation is only removed
after its successor is durable.

**Read path.**  Point lookups binary-search the sorted key block of the
newest generation after checking the in-memory index of the append
tail, which a refresh extends by reading only the bytes appended since
its last whole frame (a long-lived handle's miss costs O(new records),
not O(tail)); range scans ask :meth:`CompactedReader.match_indices` to
load only the filtered columns, then overlay the (small) uncompacted
tail.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .base import ResultStore, StoreError, StoreQuery, StoredRow, row_from_payload
from .format import (
    CompactedReader,
    Frame,
    encode_frame,
    iter_frames,
    valid_prefix_length,
    write_compacted,
)
from .legacy import OBJECTS_DIR

try:  # pragma: no cover - always available on the POSIX targets we support
    import fcntl
except ImportError:  # pragma: no cover - windows fallback: single-writer only
    fcntl = None  # type: ignore[assignment]

MANIFEST_NAME = "store.json"
MANIFEST_VERSION = 1


def _lock(fd: int, exclusive: bool) -> None:
    if fcntl is not None:
        fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)


def _same_inode(fd: int, path: Path) -> bool:
    try:
        disk = os.stat(path)
    except OSError:
        return False
    here = os.fstat(fd)
    return (here.st_dev, here.st_ino) == (disk.st_dev, disk.st_ino)


class _Shard:
    """In-memory view of one shard directory, refreshed on demand."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.reader: Optional[CompactedReader] = None
        self.generation = -1
        self.frames: Dict[str, Frame] = {}  # append + consumed tail, newest wins
        self._segment_state: Dict[str, Tuple[int, int, int]] = {}  # name -> dev,ino,size
        self._parsed: Dict[str, int] = {}  # name -> end offset of its last whole frame
        self.loaded = False

    @property
    def append_path(self) -> Path:
        return self.root / "append.seg"

    def listing(self) -> List[str]:
        """The shard directory's file names, sorted (one ``listdir``)."""
        try:
            return sorted(os.listdir(self.root))
        except OSError:
            return []

    def generations(self, names: Optional[List[str]] = None) -> List[Tuple[int, Path]]:
        found = []
        for name in self.listing() if names is None else names:
            if name.startswith("compact-") and name.endswith(".col"):
                try:
                    found.append((int(name[len("compact-") : -len(".col")]), self.root / name))
                except ValueError:
                    continue
        return sorted(found)

    def segments(self, names: Optional[List[str]] = None) -> List[Path]:
        """Uncompacted data, oldest first: consumed leftovers then the tail."""
        names = self.listing() if names is None else names
        consumed = [
            self.root / name
            for name in names
            if name.startswith("consumed-") and name.endswith(".seg")
        ]
        return consumed + ([self.append_path] if "append.seg" in names else [])

    def refresh(self, force: bool = False) -> bool:
        """Re-sync with the directory; True when anything changed."""
        changed = not self.loaded or force
        self.loaded = True
        # one listing serves both scans: a serving parent refreshes on
        # every miss, inside its request path, so a miss must stay about
        # as cheap as the legacy layout's failed open
        names = self.listing()
        generations = self.generations(names)
        newest = generations[-1] if generations else None
        if newest is not None and newest[0] != self.generation:
            for generation, path in reversed(generations):
                try:
                    reader = CompactedReader(path)
                except StoreError:
                    continue  # torn tmp rename cannot happen; stale/corrupt gen skipped
                if self.reader is not None:
                    self.reader.close()
                self.reader, self.generation = reader, generation
                changed = True
                break
        elif newest is None and self.reader is not None:
            self.reader.close()
            self.reader, self.generation = None, -1
            changed = True

        state: Dict[str, Tuple[int, int, int]] = {}
        for path in self.segments(names):
            try:
                stat = os.stat(path)
            except OSError:
                continue
            state[path.name] = (stat.st_dev, stat.st_ino, stat.st_size)
        if state != self._segment_state:
            changed = True
            # Writers only ever add bytes after a segment's last whole frame
            # (a torn tail is truncated away, never rewritten in place), so
            # while every segment keeps its identity only the new bytes are
            # read; a rotation or a vanished segment re-reads them all.
            appended = state.keys() == self._segment_state.keys() and all(
                state[name][:2] == old[:2] and state[name][2] >= self._parsed.get(name, 0)
                for name, old in self._segment_state.items()
            )
            if not appended:
                self.frames, self._parsed = {}, {}
            self._segment_state = state
            for name, (_, _, size) in state.items():
                start = self._parsed.get(name, 0)
                if size == start:
                    continue
                try:
                    with open(self.root / name, "rb") as handle:
                        handle.seek(start)
                        data = handle.read()
                except OSError:
                    continue
                for end, frame in iter_frames(data):
                    self.frames[frame.key] = frame
                    self._parsed[name] = start + end
        return changed


class ColumnarStore(ResultStore):
    """Sharded append-then-compact columnar :class:`ResultStore` backend."""

    backend = "columnar"

    def __init__(self, root, *, shard_width: Optional[int] = None) -> None:
        super().__init__(root)
        manifest = self._read_manifest()
        if manifest is None and (self.root / OBJECTS_DIR).is_dir():
            raise StoreError(
                f"{self.root} is a legacy cache directory; convert it with "
                f"'repro store migrate {self.root} NEW_DIR' and use NEW_DIR"
            )
        if manifest is not None:
            declared = int(manifest.get("shard_width", 1))
            if shard_width is not None and shard_width != declared:
                raise StoreError(
                    f"store at {self.root} was created with shard_width="
                    f"{declared}, cannot reopen with {shard_width}"
                )
            shard_width = declared
        self.shard_width = shard_width if shard_width is not None else 1
        if not 1 <= self.shard_width <= 4:
            raise StoreError(f"shard_width must be in 1..4, got {self.shard_width}")
        self._shards: Dict[str, _Shard] = {}
        self._repaired: set = set()
        self._count: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _read_manifest(self) -> Optional[Dict[str, Any]]:
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except OSError:
            return None
        except ValueError as exc:
            raise StoreError(f"corrupt store manifest at {self.manifest_path}: {exc}")
        if manifest.get("backend") != self.backend:
            raise StoreError(
                f"{self.manifest_path} declares backend "
                f"{manifest.get('backend')!r}, not {self.backend!r}"
            )
        return manifest

    def _ensure_layout(self) -> None:
        if not self.manifest_path.exists():
            self.root.mkdir(parents=True, exist_ok=True)
            payload = {
                "backend": self.backend,
                "version": MANIFEST_VERSION,
                "shard_width": self.shard_width,
            }
            # every first writer races to publish the same manifest: each
            # needs its own temp name, or one's rename steals another's
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=MANIFEST_NAME, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
            os.replace(tmp, self.manifest_path)

    def _shard_prefix(self, key: str) -> str:
        if len(key) != 64:
            raise StoreError(f"content address must be 64 hex chars, got {key!r}")
        return key[: self.shard_width]

    def _shard(self, prefix: str) -> _Shard:
        shard = self._shards.get(prefix)
        if shard is None:
            shard = self._shards[prefix] = _Shard(self.root / "shards" / prefix)
        return shard

    def _all_prefixes(self) -> List[str]:
        shards_dir = self.root / "shards"
        if not shards_dir.is_dir():
            return []
        return sorted(p.name for p in shards_dir.iterdir() if p.is_dir())

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def _repair_tail(self, path: Path) -> None:
        """Truncate a torn tail so new frames stay reachable.

        Runs once per shard per store instance, under the exclusive lock
        (no writer is mid-frame, so trailing garbage is genuinely a crash
        remnant, never a frame in flight).
        """
        try:
            fd = os.open(path, os.O_RDWR)
        except OSError:
            return
        try:
            _lock(fd, exclusive=True)
            if not _same_inode(fd, path):
                return  # rotated under us; the fresh segment is clean
            size = os.fstat(fd).st_size
            data = os.pread(fd, size, 0)
            keep = valid_prefix_length(data)
            if keep < size:
                os.ftruncate(fd, keep)
        finally:
            os.close(fd)

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        prefix = self._shard_prefix(key)
        row = row_from_payload(key, payload)
        blob = json.dumps(
            payload["record"], sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        frame_bytes = encode_frame(key, row, blob)
        self._ensure_layout()
        shard = self._shard(prefix)
        shard.root.mkdir(parents=True, exist_ok=True)
        if prefix not in self._repaired:
            self._repair_tail(shard.append_path)
            self._repaired.add(prefix)
        path = shard.append_path
        while True:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                _lock(fd, exclusive=False)
                if not _same_inode(fd, path):
                    continue  # segment rotated between open and lock: retry
                os.write(fd, frame_bytes)
                break
            finally:
                os.close(fd)
        frame = next(iter_frames(frame_bytes))[1]
        shard.frames[key] = frame  # the segment grew: the next refresh recounts

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def _find(self, shard: _Shard, key: str) -> Optional[Frame]:
        """The freshest in-memory/compacted match without forcing a refresh."""
        frame = shard.frames.get(key)
        if frame is not None:
            return frame
        if shard.reader is not None:
            index = shard.reader.find(key)
            if index is not None:
                return Frame(
                    key=key, row=shard.reader.row(index), blob=shard.reader.blob(index)
                )
        return None

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        shard = self._shard(self._shard_prefix(key))
        if not shard.loaded:
            shard.refresh()
        frame = self._find(shard, key)
        if frame is None:
            # another process may have appended or compacted since our
            # snapshot: refresh once and retry before declaring a miss
            if shard.refresh():
                frame = self._find(shard, key)
        if frame is None:
            return None
        try:
            return {"key": key, "record": frame.record()}
        except ValueError:
            return None

    def contains(self, key: str) -> bool:
        """Whether ``key`` is filed, by this store's in-memory index.

        A shard this store never read is read once; after that no file
        is touched, so a key another process filed since may read as
        absent.
        """
        shard = self._shard(self._shard_prefix(key))
        if not shard.loaded:
            shard.refresh()
        return self._find(shard, key) is not None

    def scan(
        self,
        query: Optional[StoreQuery] = None,
        *,
        with_records: bool = False,
    ) -> Iterator[Any]:
        query = query or StoreQuery()
        key_prefix = query.key_prefix
        for prefix in self._all_prefixes():
            if key_prefix is not None and not (
                prefix.startswith(key_prefix) or key_prefix.startswith(prefix)
            ):
                continue  # no address under this shard can match
            shard = self._shard(prefix)
            shard.refresh()
            overlay = shard.frames
            if shard.reader is not None:
                reader = shard.reader
                for index in reader.match_indices(query):
                    key = reader.key_at(index)
                    if key in overlay:
                        continue  # the uncompacted tail overrides
                    if key_prefix is not None and not key.startswith(key_prefix):
                        continue
                    row = reader.row(index)
                    if with_records:
                        yield row, reader.record(index)
                    else:
                        yield row
            for key, frame in overlay.items():
                if query.matches(frame.row):
                    if with_records:
                        yield frame.row, frame.record()
                    else:
                        yield frame.row

    # ------------------------------------------------------------------ #
    # Inventory
    # ------------------------------------------------------------------ #
    def count(self) -> int:
        """Distinct records across all shards.

        O(shards + uncompacted tail), never O(records): compacted row
        counts come from each generation's footer, the (small) tail
        contributes its keys not yet compacted, and the result is cached
        until some shard's on-disk state changes — so repeated ``len``
        calls are effectively O(1) even while other processes write.
        """
        changed = False
        for prefix in self._all_prefixes():
            if self._shard(prefix).refresh():
                changed = True
        if self._count is None or changed:
            total = 0
            for prefix in self._all_prefixes():
                shard = self._shard(prefix)
                if shard.reader is None:
                    total += len(shard.frames)
                else:
                    total += shard.reader.rows + sum(
                        1 for key in shard.frames if shard.reader.find(key) is None
                    )
            self._count = total
        return self._count

    def refresh(self) -> None:
        """Drop cached shard state so the next read re-syncs with disk."""
        for shard in self._shards.values():
            shard.refresh(force=True)
        self._count = None

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def _rotate_append(self, shard: _Shard, generation: int) -> None:
        path = shard.append_path
        try:
            fd = os.open(path, os.O_RDWR)
        except OSError:
            return
        try:
            _lock(fd, exclusive=True)
            if not _same_inode(fd, path):
                return
            os.rename(path, shard.root / f"consumed-{generation:08d}.seg")
        finally:
            os.close(fd)

    def compact(self) -> Dict[str, Any]:
        """Merge every shard's segments into its next compacted generation."""
        self._ensure_layout()
        report = {"backend": self.backend, "shards": 0, "compacted": 0, "removed": 0}
        for prefix in self._all_prefixes():
            shard = self._shard(prefix)
            shard.refresh(force=True)
            generations = shard.generations()
            next_generation = (generations[-1][0] + 1) if generations else 0
            self._rotate_append(shard, next_generation)
            # only rotated segments are consumed: a concurrent writer may
            # already have recreated append.seg, and its frames belong to
            # the *next* compaction
            consumed = sorted(shard.root.glob("consumed-*.seg"))
            merged: Dict[str, Tuple[StoredRow, bytes]] = {}
            if shard.reader is not None:
                reader = shard.reader
                for index in range(reader.rows):
                    merged[reader.key_at(index)] = (reader.row(index), reader.blob(index))
            tail_frames: Dict[str, Frame] = {}
            for path in consumed:
                try:
                    data = path.read_bytes()
                except OSError:
                    continue
                for _, frame in iter_frames(data):
                    tail_frames[frame.key] = frame
            if not tail_frames and shard.reader is not None and not consumed:
                report["shards"] += 1
                continue  # nothing new since the last generation
            for key, frame in tail_frames.items():
                merged[key] = (frame.row, frame.blob)
            entries = [
                (key, row, blob)
                for key, (row, blob) in sorted(
                    merged.items(), key=lambda item: bytes.fromhex(item[0])
                )
            ]
            target = shard.root / f"compact-{next_generation:08d}.col"
            tmp = shard.root / f"compact-{next_generation:08d}.col.tmp"
            write_compacted(tmp, entries)
            os.replace(tmp, target)
            # the new generation is durable: consumed segments and older
            # generations are now redundant
            for path in consumed:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            for _, path in generations:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            for stale in shard.root.glob("compact-*.col.tmp"):
                try:
                    os.unlink(stale)
                except OSError:
                    pass
            shard.refresh(force=True)
            report["shards"] += 1
            report["compacted"] += len(entries)
            report["removed"] += len(consumed)
        self._count = None
        return report

    # ------------------------------------------------------------------ #
    # Stats
    # ------------------------------------------------------------------ #
    def store_stats(self) -> Dict[str, Any]:
        shards = []
        total_bytes = 0
        for prefix in self._all_prefixes():
            shard = self._shard(prefix)
            shard.refresh()
            shard_bytes = 0
            for path in shard.root.iterdir():
                try:
                    shard_bytes += path.stat().st_size
                except OSError:
                    continue
            total_bytes += shard_bytes
            shards.append(
                {
                    "prefix": prefix,
                    "generation": shard.generation if shard.reader else None,
                    "compacted_rows": shard.reader.rows if shard.reader else 0,
                    "tail_rows": len(shard.frames),
                    "segments": len(shard.segments()),
                    "bytes": shard_bytes,
                }
            )
        return {
            "backend": self.backend,
            "root": str(self.root),
            "shard_width": self.shard_width,
            "records": self.count(),
            "shards": shards,
            "bytes": total_bytes,
        }
