"""Unit tests for the baseline synthesis flows, spelled as tasks.

Two baselines bracket the paper's combined algorithm: the naive design
(ASAP schedule, one functional unit per operation, no sharing) and the
engine with an unbounded power budget (classical time-constrained
synthesis, the asymptote of the Figure-2 curves).
"""

import pytest

from repro.api import SynthesisTask
from repro.synthesis.engine import synthesize


def naive_design(cdfg, library):
    return SynthesisTask.of(
        cdfg,
        library=library,
        scheduler="asap",
        binder="naive",
        selector="min_area",
        verify=False,
    ).run()


def unconstrained_design(cdfg, library, latency):
    return SynthesisTask.of(cdfg, library=library, latency=latency).run()


class TestNaive:
    def test_one_instance_per_operation(self, hal, library):
        result = naive_design(hal, library)
        assert result.datapath.instance_count() == len(hal.schedulable_operations())

    def test_largest_area_of_all_flows(self, hal, library):
        naive = naive_design(hal, library)
        shared = unconstrained_design(hal, library, latency=17)
        assert naive.total_area > shared.total_area

    def test_asap_schedule_attached(self, hal, library):
        result = naive_design(hal, library)
        assert result.schedule.respects_precedence()
        assert result.schedule.makespan == result.latency

    def test_spiky_power_profile(self, cosine, library):
        """The 'undesired' schedule of Figure 1: unconstrained peak power."""
        naive = naive_design(cosine, library)
        constrained = synthesize(cosine, library, latency=15, max_power=30.0)
        assert naive.peak_power > constrained.peak_power

    def test_no_conflicts_by_construction(self, elliptic, library):
        assert naive_design(elliptic, library).datapath.check_no_conflicts() == []


class TestTimeConstrained:
    def test_meets_latency(self, cosine, library):
        result = unconstrained_design(cosine, library, latency=15)
        result.verify()
        assert result.latency <= 15

    def test_constraint_is_unbounded_power(self, cosine, library):
        result = unconstrained_design(cosine, library, latency=15)
        assert result.constraints.power.is_unbounded

    def test_is_the_loose_power_asymptote(self, hal, library):
        """Figure 2's curves flatten to the power-unconstrained area."""
        unconstrained = unconstrained_design(hal, library, latency=17)
        loose = synthesize(hal, library, latency=17, max_power=500.0)
        assert loose.total_area == pytest.approx(unconstrained.total_area)

    def test_shares_functional_units(self, elliptic, library):
        result = unconstrained_design(elliptic, library, latency=30)
        assert result.datapath.instance_count() < len(elliptic.schedulable_operations())
