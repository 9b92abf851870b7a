"""A race without a deadline runs in the caller's process, in canonical order.

The canonical rule makes a deadline-less race's answer independent of
timing, so its contenders run one at a time in the process that asked
(:class:`~repro.portfolio.executors.InlineExecutor`) and stop at the first
certified one; only a ``deadline_s`` race forks, because only it needs
contenders it can kill.  Forks are counted with an
:func:`os.register_at_fork` hook, with no repro internals patched.

The inline path must give the same answers as the forked one, and every
path must file each computed record exactly once (one journal line per
content address).
"""

import collections
import json
import multiprocessing
import os

import pytest

from repro.api.batch import run_task
from repro.explore.cache import ResultCache
from repro.portfolio import (
    PortfolioRunner,
    ProcessExecutor,
    default_executor,
    portfolio_task,
    run_portfolio,
    with_deadline,
)
from repro.portfolio.executors import InlineExecutor
from repro.registries import SCHEDULERS
from repro.serve import SynthesisService


class ForkCounter:
    """Counts the forks this process makes (a fork hook cannot be removed)."""

    def __init__(self) -> None:
        self.count = 0
        os.register_at_fork(before=self._tick)

    def _tick(self) -> None:
        self.count += 1


FORKS = ForkCounter()


def race_task(power_budget=12.0, strategies=("engine", "pasap")):
    return portfolio_task(
        "hal", latency=17, power_budget=power_budget, strategies=list(strategies)
    )


def journal_counts(root):
    """Journal lines per content address under a cache directory."""
    with open(os.path.join(root, "journal.jsonl")) as handle:
        return collections.Counter(json.loads(line)["key"] for line in handle)


@pytest.fixture
def raising_scheduler():
    def boom(ctx):
        raise RuntimeError("this scheduler always raises")

    SCHEDULERS.register("boom", boom)
    yield "boom"
    SCHEDULERS.unregister("boom")


class TestExecutorChoice:
    def test_deadline_picks_the_executor(self):
        assert isinstance(default_executor(None), InlineExecutor)
        assert isinstance(default_executor(None, 5.0), ProcessExecutor)

    def test_runner_picks_by_the_tasks_deadline(self):
        assert isinstance(PortfolioRunner(race_task()).executor, InlineExecutor)
        runner = PortfolioRunner(with_deadline(race_task(), 5.0))
        assert isinstance(runner.executor, ProcessExecutor)


class TestForkContract:
    def test_cacheless_canonical_race_forks_nothing(self):
        before = FORKS.count
        record = run_task(race_task(), keep_result=False)
        assert FORKS.count == before
        assert record.feasible and record.winner == "engine"

    def test_cached_canonical_race_forks_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        before = FORKS.count
        record = run_task(race_task(), keep_result=False, cache=cache)
        assert FORKS.count == before
        assert record.feasible and record.winner == "engine"
        counts = journal_counts(tmp_path)
        assert len(counts) == 2  # the portfolio record and engine's
        assert set(counts.values()) == {1}
        # the portfolio address, one pre-answer per contender, and one
        # check under the claim for the contender that ran
        assert (cache.stats.misses, cache.stats.hits) == (4, 0)

    def test_contenders_after_the_winner_never_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = race_task()
        record = run_task(task, keep_result=False, cache=cache)
        assert record.winner == "engine"
        engine, pasap = (slot.contender.task for slot in PortfolioRunner(task).slots)
        assert cache.get(engine) is not None
        assert cache.get(pasap) is None

    def test_deadline_race_forks_once_per_contender(self):
        before = FORKS.count
        outcome = run_portfolio(with_deadline(race_task(), 5.0))
        assert FORKS.count - before == len(outcome.contenders) == 2
        assert outcome.winner is not None
        assert multiprocessing.active_children() == []


class TestSameAnswers:
    """The in-process default and an injected ProcessExecutor agree."""

    CASES = {
        "first-contender-wins": dict(power_budget=12.0),
        "later-contender-wins": dict(power_budget=8.0),  # engine infeasible
        "all-infeasible": dict(power_budget=4.0),
    }

    @staticmethod
    def both_paths(task, tmp_path):
        inline_cache = ResultCache(tmp_path / "inline")
        forked_cache = ResultCache(tmp_path / "forked")
        inline = run_portfolio(task, cache=inline_cache)
        forked = run_portfolio(
            task, cache=forked_cache, executor=ProcessExecutor(forked_cache)
        )
        return inline, forked

    @staticmethod
    def answer(outcome):
        record = outcome.record
        return (
            outcome.winner,
            record.winner,
            record.feasible,
            record.area,
            record.latency,
            record.peak_power,
            record.error_type,
            outcome.cacheable,
            record.task.cache_key(),
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_verdicts_match(self, case, tmp_path):
        task = race_task(**self.CASES[case])
        inline, forked = self.both_paths(task, tmp_path)
        assert self.answer(inline) == self.answer(forked)
        if case == "first-contender-wins":
            assert inline.winner == "engine"
        elif case == "later-contender-wins":
            assert inline.winner == "pasap+greedy"
        else:
            assert inline.winner is None
            assert inline.cacheable is True
            assert inline.record.error_type == "PowerInfeasibleSynthesisError"

    def test_raising_contender_matches(self, raising_scheduler, tmp_path):
        task = race_task(power_budget=4.0, strategies=(raising_scheduler, "engine"))
        inline, forked = self.both_paths(task, tmp_path)
        assert self.answer(inline) == self.answer(forked)
        assert inline.record.error_type == "PortfolioExecutionError"
        assert inline.cacheable is False


class TestOneWritePerRecord:
    """Each computed record lands once (the inline race: the fork test above)."""

    def test_later_win_files_every_contender_once(self, tmp_path):
        run_task(race_task(power_budget=8.0), keep_result=False, cache=ResultCache(tmp_path))
        counts = journal_counts(tmp_path)
        assert len(counts) == 3
        assert set(counts.values()) == {1}

    def test_deadline_race(self, tmp_path):
        task = with_deadline(race_task(), 5.0)
        run_task(task, keep_result=False, cache=ResultCache(tmp_path))
        assert set(journal_counts(tmp_path).values()) == {1}

    def test_served_race(self, tmp_path):
        with SynthesisService(tmp_path, workers=1) as service:
            (job,) = service.submit_many([race_task()])
            service.wait([job], timeout=60)
        assert job.record["winner"] == "engine"
        assert set(journal_counts(tmp_path / "cache").values()) == {1}
