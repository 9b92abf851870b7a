"""Unit tests for the force-directed scheduling baseline."""

import pytest

from repro.ir.analysis import concurrency_profile, critical_path_length
from repro.library.selection import MinPowerSelection, selection_delays, selection_powers
from repro.scheduling.asap import asap_schedule
from repro.scheduling.constraints import TimeConstraint
from repro.scheduling.force_directed import force_directed_schedule


def maps_for(cdfg, library):
    selection = MinPowerSelection().select(cdfg, library)
    return selection_delays(selection, cdfg), selection_powers(selection, cdfg)


class TestForceDirected:
    def test_respects_precedence_and_latency(self, hal, library):
        delays, powers = maps_for(hal, library)
        latency = critical_path_length(hal, delays) + 4
        schedule = force_directed_schedule(hal, delays, powers, latency)
        schedule.verify(time=TimeConstraint(latency))

    def test_at_critical_path_matches_asap_makespan(self, diamond, library):
        delays, powers = maps_for(diamond, library)
        latency = critical_path_length(diamond, delays)
        schedule = force_directed_schedule(diamond, delays, powers, latency)
        assert schedule.makespan == latency

    def test_balances_concurrency(self, wide, library):
        """With slack, FDS must not stack all multiplications in one cycle."""
        delays, powers = maps_for(wide, library)
        asap = asap_schedule(wide, delays, powers)
        latency = asap.makespan + 12
        balanced = force_directed_schedule(wide, delays, powers, latency)
        asap_conc = max(concurrency_profile(wide, asap.start_times, delays))
        fds_conc = max(concurrency_profile(wide, balanced.start_times, delays))
        assert fds_conc < asap_conc

    def test_lowers_peak_power_with_slack(self, cosine, library):
        delays, powers = maps_for(cosine, library)
        asap = asap_schedule(cosine, delays, powers)
        balanced = force_directed_schedule(cosine, delays, powers, asap.makespan + 8)
        assert balanced.peak_power <= asap.peak_power

    def test_deterministic(self, hal, library):
        delays, powers = maps_for(hal, library)
        first = force_directed_schedule(hal, delays, powers, 20)
        second = force_directed_schedule(hal, delays, powers, 20)
        assert first.start_times == second.start_times

    @pytest.mark.parametrize("extra", [0, 2, 6])
    def test_all_benchmarks_all_slacks(self, hal, cosine, fir, library, extra):
        for graph in (hal, cosine, fir):
            delays, powers = maps_for(graph, library)
            latency = critical_path_length(graph, delays) + extra
            schedule = force_directed_schedule(graph, delays, powers, latency)
            schedule.verify(time=TimeConstraint(latency))


class TestSelfForceReference:
    """_self_force is the reference formulation of the force the scheduler
    computes inline (with the average hoisted); keep them in lockstep."""

    def test_inline_hoisting_matches_reference(self):
        from repro.ir.operation import OpType
        from repro.scheduling.force_directed import _self_force, _window_average

        latency = 8
        series = [0.5, 1.25, 2.0, 0.75, 0.0, 1.0, 0.25, 0.5]
        distribution = {OpType.MUL: series}
        for window in ((0, 4), (2, 6), (1, 1)):
            for delay in (1, 2, 3):
                earliest, latest = window
                average = _window_average(series, delay, earliest, latest, latency)
                for candidate in range(earliest, latest + 1):
                    chosen = 0.0
                    for cycle in range(candidate, min(candidate + delay, latency)):
                        chosen += series[cycle]
                    assert chosen - average == _self_force(
                        OpType.MUL, delay, window, candidate, distribution, latency
                    )

    def test_empty_series_is_zero_force(self):
        from repro.ir.operation import OpType
        from repro.scheduling.force_directed import _self_force

        assert _self_force(OpType.ADD, 2, (0, 3), 1, {}, 8) == 0.0


def random_graph(seed):
    from repro.suite.generators import GeneratorConfig, random_cdfg

    operations = 14 + 3 * seed
    return random_cdfg(
        GeneratorConfig(
            operations=operations,
            inputs=3,
            levels=max(3, operations // 5),
            mul_fraction=0.3,
            sub_fraction=0.2,
            outputs=2,
            seed=seed,
        )
    )


class TestIncrementalState:
    """After every placement, the incremental state equals a recomputation
    from scratch: cone-refreshed ASAP/ALAP against the full passes, the
    dirty-type distribution against a full rebuild (exact float equality),
    and every kept best placement against the reference force."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_full_recomputation_after_every_placement(self, seed, library):
        from repro.ir.analysis import validated_delays
        from repro.scheduling.force_directed import (
            _alap_with_fixed,
            _asap_with_fixed,
            _distribution,
            _ForceState,
            _self_force,
        )

        cdfg = random_graph(seed)
        delays, _ = maps_for(cdfg, library)
        delays = validated_delays(cdfg, delays)
        latency = critical_path_length(cdfg, delays) + seed % 5
        state = _ForceState(cdfg, delays, latency)
        placements = 0
        while state.best_of:
            _, name, start = min(state.best_of.values())
            state.fix(name, start)
            placements += 1

            asap = _asap_with_fixed(cdfg, delays, state.fixed)
            alap = _alap_with_fixed(cdfg, delays, state.fixed, latency)
            assert state.asap == asap
            assert state.alap == alap
            # In graph order, as the textbook loop builds them: the
            # order the distribution sums in is part of its bits.
            windows = {
                n: (max(asap[n], 0), max(alap[n], asap[n]))
                for n in cdfg.operation_names()
            }
            assert state.windows == windows
            distribution = _distribution(cdfg, windows, delays, latency)
            assert state.distribution == distribution
            for op, best in state.best_of.items():
                earliest, latest = windows[op]
                optype = cdfg.operation(op).optype
                assert best == min(
                    (
                        _self_force(
                            optype, delays[op], windows[op], c, distribution, latency
                        ),
                        op,
                        c,
                    )
                    for c in range(earliest, latest + 1)
                )
        assert placements == len(cdfg.schedulable_operations())
