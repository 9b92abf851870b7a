"""Cross-process single-flight claims, keyed by content address.

A *claim* on a content address means "some process is synthesizing
this address right now".  It is the one single-flight mechanism in the
package: :func:`repro.api.batch.claim_or_wait` takes it for every
cached synthesis (``run_task``) and every differential pair
(``cross_check``), so any processes sharing one readable and writable
cache directory — two batch runs, a service and a CLI sweep with
``--resume``, serve children, race contenders, fuzz runs — synthesize a
given content address **once**, no matter how many of them race for it.

The kernel holds the claim.  All claims of a store share one lock file,
``<store_root>/claims/locks``; a claim on ``key`` is an exclusive
open-file-description lock (``F_OFD_SETLK``) on the one byte at offset
``int(key[:15], 16)`` — 60 bits of the content address.  Two different
keys that land on the same byte merely serialize each other (a process
asking for the second while it holds the first waits out
:data:`CLAIM_TIMEOUT`); a shared byte can never give one key's claim to
two holders.  Taking or dropping a claim changes no directory.

* **One descriptor per claim.**  :func:`try_acquire` opens the lock file
  and the claim owns that descriptor.  OFD locks taken through one
  shared descriptor would merge, so two threads of one process would
  share a claim; separate descriptors refuse each other like separate
  processes do.
* **Release** unlocks (``F_UNLCK``) and then closes.  Unlocking first
  frees the byte even while a forked child still holds a copy of the
  descriptor.
* **Death.**  The kernel drops the lock when the last descriptor on it
  closes, which process exit does even on SIGKILL, and an at-fork hook
  closes every held claim's descriptor in a forked child.  A claim
  therefore lives exactly as long as the process that took it: a dead
  holder's key is free for the very next :func:`try_acquire`, with no
  lease, claim file or staleness sweep.

Holders must share one host: OFD locks are not a cross-host protocol on
a shared filesystem.  On a platform without ``fcntl.F_OFD_SETLK``
:func:`try_acquire` returns a claim that locks nothing; two processes
may then compute one address twice, which the store keeps merely
wasteful, not wrong.
"""

from __future__ import annotations

import errno
import os
import struct
from pathlib import Path
from typing import Optional, Union

try:  # pragma: no cover - always available on the POSIX targets we support
    import fcntl
except ImportError:  # pragma: no cover - windows: claims lock nothing
    fcntl = None  # type: ignore[assignment]

#: Directory (under the store root) holding the lock file.
CLAIMS_DIR = "claims"

#: The one lock file whose bytes are the claims.
LOCKS_NAME = "locks"

#: Seconds between store polls while another process holds the claim.
CLAIM_POLL = 0.02

#: Ceiling on waiting for someone else's claim before computing
#: redundantly anyway (the store keeps that merely wasteful, not wrong).
CLAIM_TIMEOUT = 600.0

#: ``fcntl.F_OFD_SETLK`` where the platform has it, else ``None``.
_SETLK = getattr(fcntl, "F_OFD_SETLK", None)

__all__ = [
    "CLAIMS_DIR",
    "CLAIM_POLL",
    "CLAIM_TIMEOUT",
    "LOCKS_NAME",
    "Claim",
    "lock_path",
    "try_acquire",
]


def lock_path(root: Union[str, Path]) -> Path:
    """The lock file holding every claim under a store root."""
    return Path(root).expanduser() / CLAIMS_DIR / LOCKS_NAME


def _lock(fd: int, lock_type: int, offset: int) -> None:
    # struct flock: l_type, l_whence, l_start, l_len, l_pid (0 for OFD)
    fcntl.fcntl(fd, _SETLK, struct.pack("hhqqi4x", lock_type, os.SEEK_SET, offset, 1, 0))


#: Claims held by this process; a forked child closes their descriptors.
_HELD: set = set()


def _close_inherited() -> None:
    for claim in list(_HELD):
        claim._forget()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_inherited)


class Claim:
    """A held claim; release it once, or exit and let the kernel drop it."""

    def __init__(self, key: str, fd: Optional[int] = None, offset: int = 0) -> None:
        self.key = key
        self._fd = fd
        self._offset = offset
        if fd is not None:
            _HELD.add(self)

    @property
    def released(self) -> bool:
        return self._fd is None

    def _forget(self) -> None:
        """Close this process's descriptor without unlocking (fork child)."""
        fd, self._fd = self._fd, None
        _HELD.discard(self)
        if fd is not None:
            os.close(fd)

    def release(self) -> None:
        """Unlock the byte, then close the descriptor (idempotent)."""
        fd = self._fd
        if fd is None:
            return
        _lock(fd, fcntl.F_UNLCK, self._offset)
        self._forget()

    def __enter__(self) -> "Claim":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self.released else f"byte {self._offset}"
        return f"Claim({self.key[:12]}…, {state})"


def try_acquire(root: Union[str, Path], key: str) -> Optional[Claim]:
    """One non-blocking attempt at ``key``'s claim; ``None`` when held.

    ``key`` is a hex content address.  A holder that died has already
    let go: there is nothing to break, so callers simply retry in a poll
    loop.
    """
    if _SETLK is None:  # pragma: no cover - platforms without OFD locks
        return Claim(key)
    offset = int(key[:15], 16)
    path = lock_path(root)
    try:
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        _lock(fd, fcntl.F_WRLCK, offset)
    except OSError as exc:
        os.close(fd)
        if exc.errno in (errno.EAGAIN, errno.EACCES):
            return None
        raise
    return Claim(key, fd, offset)
