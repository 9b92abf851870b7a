"""Deterministic race-ordering tests on the scripted executor seam.

Every scenario a real race can hit — canonical-first wins, a later
contender certifying before an earlier one, ties, loser cancellation,
deadline expiry mid-flight, late deliveries past the deadline,
all-infeasible verdicts, crashed contenders — replayed from a
:class:`~repro.portfolio.executors.ScriptedExecutor` script against a
:class:`~repro.portfolio.executors.ManualClock`.  No
test here sleeps, spawns a process, or runs a synthesis: the decision
rule is exercised in isolation, which is what makes the orderings
exhaustive rather than racy.
"""

import pytest

from repro import ResultCache, TaskResult
from repro.portfolio import PortfolioRunner, portfolio_task, run_portfolio
from repro.portfolio.executors import ManualClock, ScriptedExecutor
from repro.portfolio.runner import DEADLINE_ERROR, EXECUTION_ERROR
from repro.api.task import SynthesisTask, TaskError

STRATEGIES = ["engine", "pasap", "palap"]
LABELS = ["engine", "pasap+greedy", "palap+greedy"]


def make_task(*, deadline_s=None, strategies=None):
    return portfolio_task(
        "hal",
        latency=17,
        power_budget=12.0,
        strategies=strategies or STRATEGIES,
        deadline_s=deadline_s,
    )


def feasible(area, *, elapsed=0.01):
    return {
        "feasible": True,
        "area": float(area),
        "fu_area": float(area) * 0.8,
        "peak_power": 10.0,
        "latency": 17,
        "registers": 6,
        "backtracks": 0,
        "elapsed": elapsed,
    }


def infeasible(error_type="SynthesisError"):
    return {
        "feasible": False,
        "error": f"scripted {error_type}",
        "error_type": error_type,
        "elapsed": 0.01,
    }


def race(script, *, task=None, cache=None):
    executor = ScriptedExecutor(script)
    runner = PortfolioRunner(
        task if task is not None else make_task(),
        cache=cache,
        executor=executor,
        clock=executor.clock,
    )
    return runner.run(), executor


class LateExecutor(ScriptedExecutor):
    """Delivers each completion only after running ``lag`` seconds.

    Models an executor that cannot interrupt a contender: a poll returns
    when the synthesis ends, however long after the race's deadline that
    is.  Production deadline races fork killable contenders; the runner
    must still refuse a late completion from any executor.
    """

    def __init__(self, script, lag):
        super().__init__(script)
        self.lag = lag

    def poll(self, timeout=None):
        completion = super().poll(None)
        if completion is not None:
            self.clock.advance(self.lag)
        return completion


class TestCanonicalDecision:
    def test_canonical_first_win_cancels_the_rest(self):
        outcome, executor = race([("complete", "engine", feasible(500))])
        assert outcome.winner == "engine"
        assert outcome.record.feasible is True
        assert outcome.record.winner == "engine"
        assert outcome.record.area == 500.0
        assert outcome.cacheable is True
        assert sorted(executor.cancelled) == ["palap+greedy", "pasap+greedy"]
        assert executor.delivered == ["engine"]

    def test_later_win_waits_for_earlier_contenders(self):
        # pasap certifies first, but the race is not decided until the
        # canonically-earlier engine is terminal.
        outcome, executor = race(
            [
                ("complete", "pasap+greedy", feasible(450)),
                ("complete", "engine", infeasible()),
            ]
        )
        assert outcome.winner == "pasap+greedy"
        assert outcome.record.area == 450.0
        assert outcome.cacheable is True
        # palap lost the moment pasap certified, before engine resolved
        assert executor.cancelled == ["palap+greedy"]
        assert executor.delivered == ["pasap+greedy", "engine"]

    def test_canonical_order_beats_arrival_order(self):
        # pasap arrives first with the better area; the engine still wins
        # the no-deadline race because canonical order is the rule.
        outcome, _ = race(
            [
                ("complete", "pasap+greedy", feasible(100)),
                ("complete", "engine", feasible(999)),
            ]
        )
        assert outcome.winner == "engine"
        assert outcome.record.area == 999.0

    def test_stragglers_from_cancelled_losers_are_dropped(self):
        outcome, executor = race(
            [
                ("complete", "engine", feasible(500)),
                ("complete", "pasap+greedy", feasible(1)),  # killed loser
            ]
        )
        assert outcome.winner == "engine"
        assert "pasap+greedy" not in executor.delivered
        statuses = {c["label"]: c["status"] for c in outcome.contenders}
        assert statuses["pasap+greedy"] == "cancelled"

    def test_crash_of_an_earlier_contender_does_not_poison_a_win(self):
        outcome, _ = race(
            [
                ("crash", "engine"),
                ("complete", "pasap+greedy", feasible(450)),
            ]
        )
        assert outcome.winner == "pasap+greedy"
        assert outcome.cacheable is True
        statuses = {c["label"]: c["status"] for c in outcome.contenders}
        assert statuses["engine"] == "error"


class TestInfeasibleAggregation:
    def test_all_infeasible_verdict_is_cacheable_and_canonically_typed(self):
        outcome, _ = race(
            [
                ("complete", "engine", infeasible("PowerBudgetError")),
                ("complete", "pasap+greedy", infeasible("SynthesisError")),
                ("complete", "palap+greedy", infeasible("SynthesisError")),
            ]
        )
        assert outcome.winner is None
        assert outcome.record.feasible is False
        assert outcome.record.error_type == "PowerBudgetError"  # canonical-first's
        assert outcome.cacheable is True

    def test_crash_taints_the_aggregate_as_execution_error(self):
        outcome, _ = race(
            [
                ("complete", "engine", infeasible()),
                ("crash", "pasap+greedy"),
                ("complete", "palap+greedy", infeasible()),
            ]
        )
        assert outcome.winner is None
        assert outcome.record.error_type == EXECUTION_ERROR
        assert outcome.cacheable is False
        by_label = {c["label"]: c for c in outcome.contenders}
        assert by_label["pasap+greedy"]["error_type"] == "WorkerCrash"
        assert "died" in (outcome.record.error or "")

    def test_executor_running_dry_leaves_pending_contenders_untyped(self):
        # a script that never answers palap: the race cannot call the spec
        # infeasible on partial evidence
        outcome, _ = race(
            [
                ("complete", "engine", infeasible()),
                ("complete", "pasap+greedy", infeasible()),
            ]
        )
        assert outcome.record.error_type == EXECUTION_ERROR
        assert outcome.cacheable is False


class TestDeadlineMode:
    def test_collects_all_and_returns_best_area(self):
        outcome, _ = race(
            [
                ("complete", "engine", feasible(500)),
                ("complete", "pasap+greedy", feasible(450)),
                ("complete", "palap+greedy", infeasible()),
            ],
            task=make_task(deadline_s=100.0),
        )
        assert outcome.winner == "pasap+greedy"
        assert outcome.record.area == 450.0
        assert outcome.deadline_expired is False
        assert outcome.cacheable is True

    def test_area_tie_breaks_to_canonical_first(self):
        outcome, _ = race(
            [
                ("complete", "palap+greedy", feasible(450)),
                ("complete", "engine", feasible(450)),
                ("complete", "pasap+greedy", infeasible()),
            ],
            task=make_task(deadline_s=100.0),
        )
        assert outcome.winner == "engine"

    def test_expiry_mid_flight_is_an_uncacheable_deadline_error(self):
        outcome, executor = race(
            [
                ("complete", "engine", infeasible()),
                ("advance", 12.0),  # blows through the 10s budget mid-poll
                ("complete", "pasap+greedy", feasible(450)),
            ],
            task=make_task(deadline_s=10.0),
        )
        assert outcome.winner is None
        assert outcome.deadline_expired is True
        assert outcome.record.error_type == DEADLINE_ERROR
        assert outcome.cacheable is False
        # the in-flight contenders were cancelled, their answers dropped
        assert "pasap+greedy" not in executor.delivered
        assert outcome.elapsed == pytest.approx(12.0)

    def test_expiry_after_a_certified_result_still_returns_it(self):
        outcome, _ = race(
            [
                ("complete", "pasap+greedy", feasible(450)),
                ("advance", 12.0),
            ],
            task=make_task(deadline_s=10.0),
        )
        assert outcome.winner == "pasap+greedy"
        assert outcome.record.feasible is True
        assert outcome.deadline_expired is False
        assert outcome.cacheable is True

    def test_first_certified_seconds_comes_from_the_race_clock(self):
        outcome, _ = race(
            [
                ("advance", 3.0),
                ("complete", "engine", feasible(500)),
            ],
            task=make_task(deadline_s=100.0),
        )
        assert outcome.first_certified_s == pytest.approx(3.0)


    def test_completion_delivered_after_the_deadline_is_not_a_winner(self):
        # an executor that cannot interrupt delivers engine's certified
        # result 42s into a 1s race: the race expires, it does not win
        executor = LateExecutor([("complete", "engine", feasible(500))], lag=42.0)
        outcome = PortfolioRunner(
            make_task(deadline_s=1.0), executor=executor, clock=executor.clock
        ).run()
        assert executor.delivered == ["engine"]
        assert outcome.winner is None
        assert outcome.record.feasible is False
        assert outcome.deadline_expired is True
        assert outcome.record.error_type == DEADLINE_ERROR
        assert outcome.cacheable is False
        assert outcome.first_certified_s is None

    def test_a_win_before_the_deadline_survives_a_late_straggler(self):
        # pasap certifies in time; engine's late answer must not displace it
        script = [
            ("complete", "pasap+greedy", feasible(450)),
            ("complete", "engine", feasible(100)),
        ]
        executor = LateExecutor(script, lag=0.6)
        outcome = PortfolioRunner(
            make_task(deadline_s=1.0), executor=executor, clock=executor.clock
        ).run()
        assert executor.delivered == ["pasap+greedy", "engine"]
        assert outcome.winner == "pasap+greedy"
        assert outcome.record.area == 450.0


class TestLaunchOrder:
    def test_launches_every_contender_in_canonical_order(self):
        outcome, executor = race([("complete", "engine", feasible(500))])
        assert executor.launched == LABELS
        assert [c["label"] for c in outcome.contenders] == LABELS

    def test_race_never_scans_the_store(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for power in (8.0, 9.0, 10.0):  # history: other specs, same family
            for strategy in STRATEGIES:
                past = SynthesisTask(
                    graph="hal", latency=17, power_budget=power, scheduler=strategy
                )
                cache.put(past, TaskResult(task=past, feasible=True, area=500.0))

        def scan(*_args, **_kwargs):
            raise AssertionError("a portfolio race scanned the result store")

        cache.store.scan = scan
        outcome, executor = race([("complete", "engine", feasible(500))], cache=cache)
        assert executor.launched == LABELS
        assert outcome.winner == "engine"


class TestSeamGuards:
    def test_manual_clock_never_goes_backward(self):
        clock = ManualClock()
        clock.advance(2.5)
        assert clock() == pytest.approx(2.5)
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_scripted_executor_rejects_unknown_events(self):
        executor = ScriptedExecutor([("explode", "engine")])
        runner = PortfolioRunner(make_task(), executor=executor, clock=executor.clock)
        with pytest.raises(ValueError):
            runner.run()

    def test_run_portfolio_rejects_non_portfolio_tasks(self):
        task = SynthesisTask(graph="hal", latency=17, power_budget=12.0)
        with pytest.raises(TaskError):
            run_portfolio(task)
