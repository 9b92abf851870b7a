"""The engine's busy-calendar jump against a brute-force scan of every start.

``_earliest_feasible_start`` skips from a blocked start straight past the
busy interval or the over-budget cycle that blocks it.  Each case here
compares it with the scan the engine used before: every start from the
data-ready time to the window's latest, the first that finishes by ``T``,
overlaps no busy interval and fits the power profile.
"""

import random

import pytest

from repro.binding.intervals import Interval
from repro.ir.operation import OpType
from repro.library.module import FUModule
from repro.scheduling.constraints import PowerConstraint, SynthesisConstraints, TimeConstraint
from repro.scheduling.schedule import profile_allows
from repro.synthesis.engine import PowerConstrainedSynthesizer, _BusyCalendar


def brute_force(module, data_ready, latest, profile, busy, latency, power):
    for start in range(data_ready, latest + 1):
        if start + module.latency > latency:
            return None
        candidate = Interval(start, start + module.latency)
        if any(candidate.overlaps(Interval(a, b)) for a, b in busy):
            continue
        if not profile_allows(profile, start, module.latency, module.power, power):
            continue
        return start
    return None


def calendar_of(busy):
    calendar = _BusyCalendar()
    for start, end in busy:
        calendar.add(start, end)
    return calendar


def jumped(module, data_ready, latest, profile, busy, latency, power):
    synthesizer = PowerConstrainedSynthesizer(
        library=None,
        constraints=SynthesisConstraints(TimeConstraint(latency), power),
    )
    calendar = calendar_of(busy) if busy is not None else None
    return synthesizer._earliest_feasible_start(module, data_ready, latest, profile, calendar)


def module(latency, power=2.5):
    return FUModule.make("unit", {OpType.ADD}, area=10, latency=latency, power=power)


ADJACENT = [(2, 4), (4, 6), (6, 7)]
GAPPED = [(1, 3), (5, 6), (9, 12)]
#: Cycles 3, 8 and 9 cannot take another 2.5 under a budget of 10.
PROFILE = [5.0, 5.0, 7.5, 8.0, 2.5, 0.0, 7.5, 2.5, 9.0, 8.0]


@pytest.mark.parametrize("busy", [None, [], ADJACENT, GAPPED], ids=["new", "empty", "adjacent", "gapped"])
@pytest.mark.parametrize("profile", [[], PROFILE], ids=["idle", "blocking"])
@pytest.mark.parametrize("length", [1, 2, 4])
@pytest.mark.parametrize("latency", [6, 9, 14, 20])
def test_jump_matches_brute_force(busy, profile, length, latency):
    unit = module(length)
    power = PowerConstraint(10.0)
    for data_ready in range(0, 14):
        for latest in range(data_ready, 18):
            expected = brute_force(unit, data_ready, latest, profile, busy or [], latency, power)
            assert jumped(unit, data_ready, latest, profile, busy, latency, power) == expected, (
                data_ready,
                latest,
            )


def test_a_start_hitting_the_latency_bound_gives_none():
    # The only gap that fits is [7, 9), but T = 8 ends the search first.
    busy = [(0, 3), (3, 7)]
    unit = module(2)
    power = PowerConstraint.unbounded()
    assert brute_force(unit, 0, 10, [], busy, 8, power) is None
    assert jumped(unit, 0, 10, [], busy, 8, power) is None
    assert jumped(unit, 0, 10, [], busy, 9, power) == 7


def test_a_module_over_budget_fits_nowhere():
    unit = module(1, power=12.0)
    power = PowerConstraint(10.0)
    assert brute_force(unit, 0, 5, [], [], 20, power) is None
    assert jumped(unit, 0, 5, [], [], 20, power) is None


def test_random_calendars_and_profiles_match_brute_force():
    rng = random.Random(20)
    for _ in range(400):
        latency = rng.randint(4, 30)
        busy = []
        cursor = rng.randint(0, 3)
        while cursor < latency and rng.random() < 0.8:
            end = cursor + rng.randint(1, 4)
            busy.append((cursor, end))
            cursor = end + rng.choice([0, 0, 1, 2, 3])
        profile = [rng.choice([0.0, 2.5, 5.0, 7.5, 8.1]) for _ in range(rng.randint(0, latency))]
        unit = module(rng.randint(1, 4), power=rng.choice([0.2, 2.5, 2.7, 8.1]))
        power = rng.choice([PowerConstraint(10.0), PowerConstraint(12.0), PowerConstraint.unbounded()])
        rng.shuffle(busy)  # the calendar sorts what it is given
        data_ready = rng.randint(0, latency)
        latest = data_ready + rng.randint(0, 8)
        expected = brute_force(unit, data_ready, latest, profile, busy, latency, power)
        assert jumped(unit, data_ready, latest, profile, busy, latency, power) == expected


def test_calendar_add_and_remove_keep_intervals_sorted():
    calendar = calendar_of([(5, 6), (0, 2), (2, 4), (8, 11)])
    assert calendar.starts == [0, 2, 5, 8]
    assert calendar.ends == [2, 4, 6, 11]
    calendar.remove(2)
    assert calendar.starts == [0, 5, 8] and calendar.ends == [2, 6, 11]
    assert calendar.first_free(2, 3) == 2
    assert calendar.first_free(2, 4) == 11  # past [5, 6), then [8, 11)
    assert calendar.first_free(1, 1) == 2
    assert calendar.first_free(6, 2) == 6
    assert calendar.first_free(11, 5) == 11
