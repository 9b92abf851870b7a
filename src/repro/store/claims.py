"""Cross-process single-flight claims, keyed by content address.

A *claim file* is the store-level generalization of the serving layer's
in-process per-key claims: a small JSON file under
``<store_root>/claims/<key[:2]>/<key>.claim`` whose existence means
"some process is synthesizing this content address right now".  Two
service processes (or two batch runs, or a service and a CLI sweep)
sharing one cache directory coordinate through these files so a given
content address is synthesized **once**, no matter how many processes
race for it.

The protocol keeps the discipline the store's other on-disk structures
established — every visible state transition is a single atomic
filesystem operation:

* **Acquire** is ``os.link(tmp, claim)``: the claim's full JSON body
  (pid, timestamps, lease, owner) is written to a private temp file
  first, then linked into place.  A link either succeeds (the claim
  appears complete — no reader can ever observe a torn claim) or fails
  with ``EEXIST`` (someone else holds it).  There is no
  read-check-then-create window.
* **Release** is one ``os.unlink`` by the holder.
* **Breaking a stale claim** — the holder's pid is dead, or its lease
  expired (the cross-host backstop where pids mean nothing) — happens
  under an exclusive ``flock`` on ``claims/.break.lock``, and only after
  re-reading the claim and confirming it is byte-identical to the stale
  one observed: a breaker never unlinks a claim that changed hands
  under it.

Waiters do not block on the claim itself: the expected protocol (what
:func:`repro.exec.run_claimed_task` does) is *poll the result
store while the claim is held* — when the holder finishes, its record
appears in the store and the waiter returns it as a cache hit; when the
holder dies, its claim goes stale and the waiter breaks it and takes
over.  Liveness never depends on a crashed process cleaning up.
"""

from __future__ import annotations

import errno
import json
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

try:  # pragma: no cover - always available on the POSIX targets we support
    import fcntl
except ImportError:  # pragma: no cover - windows fallback: breaking unserialized
    fcntl = None  # type: ignore[assignment]

#: Directory (under the store root) holding the claim files.
CLAIMS_DIR = "claims"

#: Lock file serializing stale-claim breaking within one claims directory.
BREAK_LOCK = ".break.lock"

#: Default lease in seconds.  The dead-pid check is the primary staleness
#: signal on one host; the lease is the backstop for holders on other
#: hosts (shared filesystem) where a pid number proves nothing.  It only
#: has to be comfortably longer than the slowest synthesis.
DEFAULT_LEASE = 300.0

__all__ = [
    "CLAIMS_DIR",
    "DEFAULT_LEASE",
    "Claim",
    "ClaimError",
    "ClaimInfo",
    "break_stale_claims",
    "claim_path",
    "holder",
    "try_acquire",
]


class ClaimError(RuntimeError):
    """A claim-protocol usage error (releasing a claim twice, …)."""


@dataclass
class ClaimInfo:
    """The parsed body of one claim file.

    Attributes:
        key: The content address the claim covers.
        pid: Process id of the holder (on the host that acquired it).
        acquired_at: Epoch timestamp of acquisition.
        lease: Seconds after which the claim may be broken even if the
            pid cannot be proven dead.
        owner: Free-form holder label (job id, service name) for humans
            reading a claims directory.
        nonce: Random token distinguishing re-acquisitions of one key.
    """

    key: str
    pid: int
    acquired_at: float
    lease: float
    owner: str = ""
    nonce: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "key": self.key,
                "pid": self.pid,
                "acquired_at": self.acquired_at,
                "lease": self.lease,
                "owner": self.owner,
                "nonce": self.nonce,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> Optional["ClaimInfo"]:
        try:
            data = json.loads(raw.decode("utf-8"))
            return cls(
                key=str(data["key"]),
                pid=int(data["pid"]),
                acquired_at=float(data["acquired_at"]),
                lease=float(data["lease"]),
                owner=str(data.get("owner", "")),
                nonce=str(data.get("nonce", "")),
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return None

    def is_stale(self, *, now: Optional[float] = None) -> bool:
        """True when the holder is provably dead or the lease expired."""
        if pid_is_dead(self.pid):
            return True
        now = time.time() if now is None else now
        return now - self.acquired_at > self.lease


def pid_is_dead(pid: int) -> bool:
    """Whether ``pid`` provably does not exist on this host.

    ``os.kill(pid, 0)`` probes without signalling; ``PermissionError``
    means the pid exists under another uid, which counts as alive.  A
    same-pid *different* process (pid reuse) is indistinguishable — the
    lease expiry is the backstop for that.
    """
    if pid <= 0:
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # pragma: no cover - container runs single-uid
        return False
    except OSError:  # pragma: no cover - conservative: assume alive
        return False
    return False


def claim_path(root: Union[str, Path], key: str) -> Path:
    """The claim-file path for one content address under a store root."""
    root = Path(root).expanduser()
    return root / CLAIMS_DIR / key[:2] / f"{key}.claim"


def holder(root: Union[str, Path], key: str) -> Optional[ClaimInfo]:
    """The current claim body for ``key``, or ``None`` when unclaimed."""
    try:
        raw = claim_path(root, key).read_bytes()
    except OSError:
        return None
    return ClaimInfo.from_bytes(raw)


class Claim:
    """A held claim; release it exactly once (or die and go stale)."""

    def __init__(self, path: Path, info: ClaimInfo) -> None:
        self.path = path
        self.info = info
        self._released = False

    @property
    def key(self) -> str:
        return self.info.key

    def release(self) -> None:
        """Unlink the claim file (idempotent: a broken claim is fine)."""
        if self._released:
            return
        self._released = True
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            # someone decided we were stale and broke the claim; the
            # result store keeps that merely redundant, not wrong
            pass

    def __enter__(self) -> "Claim":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Claim({self.info.key[:12]}…, pid={self.info.pid})"


def _break_if_unchanged(path: Path, observed: bytes) -> bool:
    """Unlink ``path`` iff its bytes still equal ``observed``.

    Serialized by an exclusive ``flock`` on the claims directory's break
    lock, so two processes that both judged a claim stale cannot unlink
    two *different* generations of it (the second breaker re-reads and
    sees the first breaker's successor claim — different bytes — and
    backs off).
    """
    lock_path = path.parent.parent / BREAK_LOCK
    fd = os.open(lock_path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            current = path.read_bytes()
        except OSError:
            return True  # already gone
        if current != observed:
            return False  # changed hands under us: a live claim now
        try:
            os.unlink(path)
        except FileNotFoundError:  # pragma: no cover - raced the holder
            pass
        return True
    finally:
        os.close(fd)


def try_acquire(
    root: Union[str, Path],
    key: str,
    *,
    lease: float = DEFAULT_LEASE,
    owner: str = "",
) -> Optional[Claim]:
    """One non-blocking acquisition attempt; ``None`` when held elsewhere.

    Breaks a stale claim (dead pid / expired lease) as part of the
    attempt, so callers simply retry in a poll loop — no separate
    janitor is needed for liveness.
    """
    path = claim_path(root, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    info = ClaimInfo(
        key=key,
        pid=os.getpid(),
        acquired_at=time.time(),
        lease=float(lease),
        owner=owner,
        nonce=uuid.uuid4().hex,
    )
    body = info.to_json().encode("utf-8")
    tmp = path.parent / f".tmp-{info.pid}-{info.nonce}"
    tmp.write_bytes(body)
    try:
        for _attempt in (0, 1):
            try:
                os.link(tmp, path)
                return Claim(path, info)
            except OSError as exc:
                if exc.errno != errno.EEXIST:
                    raise
            try:
                observed = path.read_bytes()
            except OSError:
                continue  # holder released between link and read: retry
            current = ClaimInfo.from_bytes(observed)
            # an unparsable claim body cannot happen through this module
            # (link-into-place is atomic) but a foreign writer's garbage
            # must not wedge the key forever: treat it as breakable
            if current is not None and not current.is_stale():
                return None
            if not _break_if_unchanged(path, observed):
                return None  # a fresh holder took over while we broke
        return None
    finally:
        try:
            os.unlink(tmp)
        except FileNotFoundError:  # pragma: no cover
            pass


def break_stale_claims(root: Union[str, Path]) -> int:
    """Sweep a claims directory, breaking every stale claim; returns count.

    Hygiene for service boot: a machine-wide crash leaves claim files
    whose pids may have been reused by unrelated processes.  Sweeping at
    boot bounds how long such a claim can gate its key to the lease.
    """
    claims_root = Path(root).expanduser() / CLAIMS_DIR
    if not claims_root.is_dir():
        return 0
    broken = 0
    for path in sorted(claims_root.glob("*/*.claim")):
        try:
            observed = path.read_bytes()
        except OSError:
            continue
        info = ClaimInfo.from_bytes(observed)
        if info is None or info.is_stale():
            if _break_if_unchanged(path, observed):
                broken += 1
    return broken
