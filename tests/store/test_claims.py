"""Tests for the store-level single-flight claim protocol.

The unit half exercises the claim directly: acquire/release, refusal
to a second thread of the holder's own process, and the kernel's
release of a SIGKILLed holder's lock — also when that holder has a live
forked child, which pins the at-fork hook.  The property half is a
seeded multiprocess interleaving test: workers race to claim one key,
hold it, and randomly *crash while holding* — across every interleaving
there must never be two live holders inside the critical section at
once, and a crashed holder's key must always be free for the next
acquirer.
"""

import json
import multiprocessing
import os
import random
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.store.claims import Claim, lock_path, try_acquire

KEY = "ab" + "0" * 62

CTX = multiprocessing.get_context("fork")

#: Seconds any helper process may take before it counts as hung.
WAIT = 60.0


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` runs on this host (an unreaped zombie counts as dead)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


class TestAcquireRelease:
    def test_acquire_then_conflict_then_release(self, tmp_path):
        claim = try_acquire(tmp_path, KEY)
        assert isinstance(claim, Claim) and claim.key == KEY
        assert try_acquire(tmp_path, KEY) is None  # held by this very process
        other = try_acquire(tmp_path, "cd" + "0" * 62)
        assert other is not None  # another byte of the same lock file
        other.release()
        claim.release()
        assert try_acquire(tmp_path, KEY) is not None

    def test_second_thread_is_refused(self, tmp_path):
        claim = try_acquire(tmp_path, KEY)
        seen = []
        thread = threading.Thread(target=lambda: seen.append(try_acquire(tmp_path, KEY)))
        thread.start()
        thread.join(WAIT)
        assert seen == [None]
        claim.release()

    def test_release_is_idempotent(self, tmp_path):
        claim = try_acquire(tmp_path, KEY)
        claim.release()
        claim.release()
        assert claim.released
        again = try_acquire(tmp_path, KEY)
        claim.release()  # a stale handle must not free the new holder's byte
        assert try_acquire(tmp_path, KEY) is None
        again.release()

    def test_context_manager_releases(self, tmp_path):
        with try_acquire(tmp_path, KEY) as claim:
            assert try_acquire(tmp_path, KEY) is None
        assert claim.released
        assert try_acquire(tmp_path, KEY) is not None

    def test_no_temp_file_litter(self, tmp_path):
        try_acquire(tmp_path, KEY).release()
        held = try_acquire(tmp_path, KEY)
        assert try_acquire(tmp_path, KEY) is None
        held.release()
        assert [p.name for p in lock_path(tmp_path).parent.iterdir()] == ["locks"]


def _hold(root, report, fork_child) -> None:
    """Holder body: take the claim, maybe fork a sleeping child, report, sleep."""
    claim = try_acquire(root, KEY)
    child = os.fork() if fork_child else -1
    if child != 0:  # the holder, not its child
        os.write(report, f"{int(claim is not None)} {child}".encode())
    time.sleep(WAIT)


def _sigkilled_holder(tmp_path, *, fork_child):
    """Fork a holder, check it is respected, SIGKILL it; return its child's pid."""
    read_end, write_end = os.pipe()
    holder = os.fork()
    if holder == 0:
        try:
            _hold(tmp_path, write_end, fork_child)
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        held, child = os.read(read_end, 64).split()
        assert held == b"1", "holder never took the claim"
        assert try_acquire(tmp_path, KEY) is None  # a live holder is never robbed
    finally:
        os.kill(holder, signal.SIGKILL)
        os.waitpid(holder, 0)
        os.close(read_end)
    return int(child)


class TestHolderDeath:
    def test_sigkilled_holder_frees_key_at_once(self, tmp_path):
        _sigkilled_holder(tmp_path, fork_child=False)
        claim = try_acquire(tmp_path, KEY)
        assert claim is not None
        claim.release()

    def test_live_forked_child_does_not_keep_the_claim(self, tmp_path):
        child = _sigkilled_holder(tmp_path, fork_child=True)
        try:
            assert _pid_alive(child)
            claim = try_acquire(tmp_path, KEY)
            assert claim is not None
            claim.release()
        finally:
            os.kill(child, signal.SIGKILL)

    def test_forked_child_cannot_release_its_parents_claim(self, tmp_path):
        claim = try_acquire(tmp_path, KEY)
        pid = os.fork()
        if pid == 0:
            claim.release()  # the child holds no descriptor: a no-op
            os._exit(0 if claim.released else 1)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 0
        assert try_acquire(tmp_path, KEY) is None
        claim.release()


# --------------------------------------------------------------------- #
# Seeded multiprocess interleaving property
# --------------------------------------------------------------------- #

WORKERS = 4
ITERATIONS = 12
CRASH_PROBABILITY = 0.3


def _contend(root, worker, seed):
    """One worker: loop of acquire → critical section → release or crash.

    The critical section is guarded by an ``O_CREAT | O_EXCL`` sentinel
    recording the holder's pid.  Two *live* processes inside at once is
    the violation this test hunts; a sentinel left by a crashed (dead
    pid) holder is expected debris that the next rightful claim holder
    cleans up.
    """
    rng = random.Random(seed * 1000 + worker)
    root = Path(root)
    sentinel = root / "critical.sentinel"
    violations = root / "violations.log"
    for _round in range(ITERATIONS):
        claim = try_acquire(root, KEY)
        if claim is None:
            time.sleep(rng.uniform(0.0, 0.003))
            continue
        try:
            os.close(
                os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            )
            sentinel.write_text(str(os.getpid()))
        except FileExistsError:
            try:
                previous = int(sentinel.read_text() or "0")
            except (OSError, ValueError):
                previous = 0
            if previous and _pid_alive(previous):
                with open(violations, "a") as handle:  # two live holders!
                    handle.write(
                        json.dumps({"worker": worker, "other_pid": previous})
                        + "\n"
                    )
            # crashed predecessor's debris: we hold the claim, reclaim it
            sentinel.write_text(str(os.getpid()))
        time.sleep(rng.uniform(0.0, 0.002))
        if rng.random() < CRASH_PROBABILITY:
            os._exit(1)  # SIGKILL-equivalent: no release, no cleanup
        sentinel.unlink()
        claim.release()


@pytest.mark.parametrize("seed", [7, 1234])
def test_random_crash_interleavings_never_double_hold(tmp_path, seed):
    for wave in range(2):
        procs = [
            CTX.Process(
                target=_contend, args=(str(tmp_path), wave * WORKERS + w, seed)
            )
            for w in range(WORKERS)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(WAIT)
            assert proc.exitcode is not None, "worker wedged"

    violations = tmp_path / "violations.log"
    assert not violations.exists(), violations.read_text()

    # whatever a crashed final holder left behind, the kernel dropped its
    # lock: the next try_acquire succeeds
    claim = try_acquire(tmp_path, KEY)
    assert claim is not None
    claim.release()
