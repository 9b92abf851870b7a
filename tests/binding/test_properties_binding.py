"""Property-based tests for the binding layer (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.binding.intervals import Interval, max_overlap_count
from repro.binding.register import ValueLifetime, left_edge_allocation


# --------------------------------------------------------------------------- #
# Left-edge register allocation
# --------------------------------------------------------------------------- #
@st.composite
def lifetimes(draw):
    count = draw(st.integers(min_value=0, max_value=25))
    result = {}
    for index in range(count):
        start = draw(st.integers(min_value=0, max_value=40))
        length = draw(st.integers(min_value=1, max_value=10))
        result[f"v{index}"] = ValueLifetime(f"v{index}", Interval(start, start + length))
    return result


@given(lifetimes())
@settings(max_examples=100, deadline=None)
def test_left_edge_is_consistent_and_optimal(lifetime_map):
    allocation = left_edge_allocation(lifetime_map)
    # no register ever holds two overlapping values
    assert allocation.is_consistent()
    # every value is stored exactly once
    stored = [p for producers in allocation.registers.values() for p in producers]
    assert sorted(stored) == sorted(lifetime_map)
    # left-edge achieves the interval-graph lower bound
    bound = max_overlap_count(lt.interval for lt in lifetime_map.values())
    assert allocation.count == bound

