"""The bounded memo of power-oblivious schedules (list, force-directed and
two-step's first step): hits equal cold computations, keys follow the
graph actually scheduled, callers cannot poison it, and it stays bounded."""

import copy
import dataclasses

import pytest

from repro.api.pipeline import Pipeline
from repro.api.task import SynthesisTask
from repro.ir.analysis import critical_path_length
from repro.ir.operation import Operation, OpType
from repro.library.selection import MinPowerSelection, selection_delays, selection_powers
from repro.scheduling import force_directed as fds_module
from repro.scheduling import list_scheduler as list_module
from repro.scheduling import memo
from repro.scheduling.force_directed import force_directed_schedule
from repro.scheduling.list_scheduler import list_schedule_for_latency


@pytest.fixture(autouse=True)
def cold_memo():
    memo.clear()
    yield
    memo.clear()


@pytest.fixture
def fds_calls(monkeypatch):
    """Counts force-directed computations (memo misses)."""
    calls = []
    original = fds_module._force_directed_start_times

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(fds_module, "_force_directed_start_times", counted)
    return calls


@pytest.fixture
def allocation_calls(monkeypatch):
    """Counts greedy allocation searches (list memo misses)."""
    calls = []
    original = list_module.greedy_allocation_for_latency

    def counted(*args):
        calls.append(args[4])
        return original(*args)

    monkeypatch.setattr(list_module, "greedy_allocation_for_latency", counted)
    return calls


def maps_for(cdfg, library):
    selection = MinPowerSelection().select(cdfg, library)
    module_of = {n: selection[n] for n in cdfg.schedulable_operations()}
    return selection_delays(selection, cdfg), selection_powers(selection, cdfg), module_of


def outcome(result):
    """What a run answered, copied so later mutations cannot reach it."""
    return copy.deepcopy(
        (
            result.schedule.start_times,
            result.area.total,
            result.metadata["metrics"],
            result.schedule.label,
        )
    )


class TestWarmEqualsCold:
    @pytest.mark.parametrize("scheduler", ["list", "force_directed", "two_step"])
    def test_sweep_over_budgets(self, scheduler, fds_calls, allocation_calls):
        budgets = (10.0, 12.0, 30.0)
        warm = [
            outcome(SynthesisTask.of("hal", latency=17, power_budget=p, scheduler=scheduler).run())
            for p in budgets
        ]
        # One power-oblivious computation served every budget.
        assert len(fds_calls) + len(allocation_calls) == 1
        for budget, seen in zip(budgets, warm):
            memo.clear()
            cold = SynthesisTask.of(
                "hal", latency=17, power_budget=budget, scheduler=scheduler
            ).run()
            assert outcome(cold) == seen

    def test_force_directed_and_two_step_share_one_entry(self, fds_calls):
        fds = SynthesisTask.of("hal", latency=22, power_budget=12.0, scheduler="force_directed")
        two_step = SynthesisTask.of("hal", latency=22, power_budget=7.5, scheduler="two_step")
        fds.run()
        repaired = two_step.run()
        assert fds_calls == [22]
        # Two-step's repair still ran against its own budget.
        assert repaired.metadata["metrics"]["repair_moves"] > 0
        memo.clear()
        assert outcome(two_step.run()) == outcome(repaired)

    def test_pure_entry_points(self, cosine, library, fds_calls, allocation_calls):
        delays, powers, module_of = maps_for(cosine, library)
        latency = critical_path_length(cosine, delays) + 3
        first = force_directed_schedule(cosine, delays, powers, latency, label="a")
        second = force_directed_schedule(cosine, delays, powers, latency, label="b")
        assert (first.start_times, first.label) != (second.start_times, second.label)
        assert first.start_times == second.start_times
        assert second.label == "b"
        listed = list_schedule_for_latency(cosine, delays, powers, module_of, latency)
        again = list_schedule_for_latency(cosine, delays, powers, module_of, latency)
        assert (again.start_times, again.metadata) == (listed.start_times, listed.metadata)
        assert len(fds_calls) == 1 and len(allocation_calls) == 1


class TestKeys:
    def test_live_graph_override_with_the_same_spec_does_not_hit(self, hal):
        task = SynthesisTask(
            graph="hal", latency=20, power_budget=12.0, scheduler="force_directed"
        )
        plain = task.run()

        edited = hal.copy()
        edited.add_operation(Operation("extra", OpType.ADD))
        edited.add_edge("in_x", "extra")
        edited.add_edge("in_u", "extra")
        overridden = Pipeline.default().run(task, cdfg=edited)
        assert "extra" in overridden.schedule.start_times
        assert "extra" not in plain.schedule.start_times

        memo.clear()
        cold = Pipeline.default().run(task, cdfg=edited)
        assert overridden.schedule.start_times == cold.schedule.start_times

    def test_same_structure_other_delays_does_not_hit(self, hal, library, fds_calls):
        delays, powers, _ = maps_for(hal, library)
        latency = critical_path_length(hal, delays) + 6
        force_directed_schedule(hal, delays, powers, latency)
        slower = {n: d + 1 if d else d for n, d in delays.items()}
        stretched = force_directed_schedule(hal, slower, powers, latency + 8)
        force_directed_schedule(hal, slower, powers, latency)
        assert fds_calls == [latency, latency + 8, latency]
        memo.clear()
        assert force_directed_schedule(hal, slower, powers, latency + 8).start_times == (
            stretched.start_times
        )

    def test_list_key_includes_the_module_choice(self, hal, library, allocation_calls):
        delays, powers, module_of = maps_for(hal, library)
        latency = critical_path_length(hal, delays) + 4
        list_schedule_for_latency(hal, delays, powers, module_of, latency)
        renamed = {
            n: dataclasses.replace(module, name=module.name + "-b")
            for n, module in module_of.items()
        }
        other = list_schedule_for_latency(hal, delays, powers, renamed, latency)
        assert len(allocation_calls) == 2
        assert all(name.endswith("-b") for name in other.metadata["allocation"])


class TestCopies:
    @pytest.mark.parametrize("returned", ["miss", "hit"])
    def test_mutating_a_returned_schedule_does_not_poison_the_memo(
        self, returned, hal, library
    ):
        delays, powers, module_of = maps_for(hal, library)
        latency = critical_path_length(hal, delays) + 4

        def both():
            return (
                force_directed_schedule(hal, delays, powers, latency),
                list_schedule_for_latency(hal, delays, powers, module_of, latency),
            )

        if returned == "hit":
            both()
        fds, listed = both()
        expected = copy.deepcopy((fds.start_times, listed.start_times, listed.metadata))
        for name in fds.start_times:
            fds.start_times[name] += 100
        listed.start_times.clear()
        listed.metadata["allocation"]["poisoned"] = 1

        fds, listed = both()
        assert (fds.start_times, listed.start_times, listed.metadata) == expected

    def test_mutating_a_task_result_does_not_poison_the_memo(self):
        task = SynthesisTask.of("hal", latency=17, power_budget=12.0, scheduler="list")
        first = task.run()
        expected = outcome(first)
        first.schedule.start_times["m1_3x"] = 99
        first.metadata["metrics"]["allocation"].clear()
        assert outcome(task.run()) == expected


class TestBound:
    def test_entry_count_never_exceeds_the_bound(self, diamond, library):
        delays, powers, _ = maps_for(diamond, library)
        low = critical_path_length(diamond, delays)
        latencies = range(low, low + memo.MEMO_ENTRIES + 10)
        for latency in latencies:
            force_directed_schedule(diamond, delays, powers, latency)
            assert memo.entry_count() <= memo.MEMO_ENTRIES
        assert memo.entry_count() == memo.MEMO_ENTRIES

    def test_least_recently_used_goes_first(self, diamond, library, fds_calls):
        delays, powers, _ = maps_for(diamond, library)
        low = critical_path_length(diamond, delays)
        for latency in range(low, low + memo.MEMO_ENTRIES):
            force_directed_schedule(diamond, delays, powers, latency)
        force_directed_schedule(diamond, delays, powers, low)  # refresh the oldest
        force_directed_schedule(diamond, delays, powers, low + memo.MEMO_ENTRIES)  # evicts low+1
        del fds_calls[:]
        force_directed_schedule(diamond, delays, powers, low)
        assert fds_calls == []
        force_directed_schedule(diamond, delays, powers, low + 1)
        assert fds_calls == [low + 1]
