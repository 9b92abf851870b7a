"""Interval utilities for binding.

Binding two operations to the same functional unit, or two values to the
same register, is only legal when their occupation intervals do not
overlap.  This module centralizes the small amount of interval arithmetic
that the left-edge register allocator and the ``greedy`` binder rely on.

All intervals are half-open ``[start, end)`` over integer clock cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open cycle interval ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} before start {self.start}")

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def empty(self) -> bool:
        return self.end == self.start

    def overlaps(self, other: "Interval") -> bool:
        """True if the two intervals share at least one cycle."""
        if self.empty or other.empty:
            return False
        return self.start < other.end and other.start < self.end

    def contains_cycle(self, cycle: int) -> bool:
        return self.start <= cycle < self.end

    def shifted(self, offset: int) -> "Interval":
        return Interval(self.start + offset, self.end + offset)

    def merge(self, other: "Interval") -> "Interval":
        """Smallest interval covering both (they need not overlap)."""
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.start}, {self.end})"


def intervals_overlap(intervals: Sequence[Interval]) -> bool:
    """True if any pair among ``intervals`` overlaps."""
    ordered = sorted(i for i in intervals if not i.empty)
    for earlier, later in zip(ordered, ordered[1:]):
        if earlier.overlaps(later):
            return True
    return False


def any_overlap(interval: Interval, others: Iterable[Interval]) -> bool:
    """True if ``interval`` overlaps any member of ``others``."""
    return any(interval.overlaps(o) for o in others)


def union_length(intervals: Iterable[Interval]) -> int:
    """Number of cycles covered by the union of the intervals."""
    ordered = sorted((i for i in intervals if not i.empty), key=lambda i: i.start)
    covered = 0
    current_start = None
    current_end = None
    for interval in ordered:
        if current_end is None or interval.start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = interval.start, interval.end
        else:
            current_end = max(current_end, interval.end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def max_overlap_count(intervals: Iterable[Interval]) -> int:
    """Maximum number of intervals simultaneously alive in any cycle.

    This is the classic lower bound on the number of registers (for value
    lifetimes) or functional units (for execution intervals) required.
    """
    events: List[Tuple[int, int]] = []
    for interval in intervals:
        if interval.empty:
            continue
        events.append((interval.start, 1))
        events.append((interval.end, -1))
    events.sort()
    active = best = 0
    for _, delta in events:
        active += delta
        best = max(best, active)
    return best
