"""Host pace: the benchmark's times, scaled to a host of fixed speed.

The benchmark runs on a few cores of a shared host whose speed changes by
up to about 1.8x in phases of seconds to minutes, as other tenants come and
go; CPU time swings with it, so it is no steadier than wall time.  A fixed
pure-Python kernel, which calls nothing in ``repro``, slows with the host,
so the benchmark times the kernel next to the work, in the same process
and just before or after it, and reports each time scaled by
``REFERENCE_KERNEL_S / kernel seconds``: the time the work would take on a
host that runs the kernel in ``REFERENCE_KERNEL_S``.  A change to the
program moves the work and not the kernel, so it shows in full; a change
of host speed moves both, and cancels.  Kernel runs are never inside a
timed interval.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: Kernel seconds of the reference host; every scaled time is "seconds on
#: a host that runs the kernel this fast" (about the fast phase of the
#: 2-vCPU x86-64 host the benchmark was tuned on).
REFERENCE_KERNEL_S = 1e-3


def kernel() -> int:
    """Fixed interpreter work: float list building, dict updates, sorting
    and a filtered tuple, the kinds of work the program's passes do."""
    rng = random.Random(7)
    items = [rng.random() for _ in range(3000)]
    table = {}
    for i, x in enumerate(items):
        table[i % 257] = table.get(i % 257, 0.0) + x
    ordered = sorted(items)
    heavy = tuple((k, v) for k, v in table.items() if v > 1.0)
    return len(ordered) + len(heavy)


def kernel_seconds(runs: int = 3) -> float:
    """Median seconds of ``runs`` kernel runs now, with the cyclic garbage
    collector paused, so a collection of the program's heap is not timed."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(runs):
            began = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - began)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, on the reference host."""
    return seconds * REFERENCE_KERNEL_S / kernel_s
