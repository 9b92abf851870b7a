"""Tests for the seeded differential fuzzer."""

import json
import multiprocessing

import pytest

from repro.explore import ResultCache
from repro.store import iter_journal_payloads
from repro.suite.generators import family_names
from repro.verify import FuzzConfig, fuzz_case_tasks, run_fuzz

SMALL = FuzzConfig(families=("chain", "tree"), seeds=2)


class TestConfig:
    def test_defaults_cover_every_family(self):
        assert FuzzConfig().family_names() == family_names()

    def test_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(seeds=0)
        with pytest.raises(ValueError):
            FuzzConfig(max_slack=-1)
        with pytest.raises(ValueError):
            FuzzConfig(unbounded_fraction=0.9, tight_fraction=0.9)

    def test_unknown_family_fails_fast(self):
        with pytest.raises(KeyError):
            list(fuzz_case_tasks(FuzzConfig(families=("bogus",))))


class TestCaseGeneration:
    def test_cases_are_deterministic(self):
        first = list(fuzz_case_tasks(SMALL))
        second = list(fuzz_case_tasks(SMALL))
        assert [c.task.cache_key() for c in first] == [
            c.task.cache_key() for c in second
        ]
        assert [(c.family, c.seed) for c in first] == [
            (c.family, c.seed) for c in second
        ]

    def test_case_count_and_labels(self):
        cases = list(fuzz_case_tasks(SMALL))
        assert len(cases) == 2 * 2
        for case in cases:
            assert case.task.label == f"{case.family}/s{case.seed}"
            assert case.task.latency is not None
            assert case.power_floor > 0

    def test_budget_mix_includes_tight_and_unbounded(self):
        cases = list(fuzz_case_tasks(FuzzConfig(seeds=25)))
        budgets = [case.task.power_budget for case in cases]
        assert any(budget is None for budget in budgets)
        assert any(case.below_floor for case in cases)
        assert any(
            budget is not None and budget >= case.power_floor
            for budget, case in zip(budgets, cases)
        )


class TestRunFuzz:
    @pytest.fixture(scope="class")
    def report(self):
        return run_fuzz(SMALL)

    def test_zero_violations_on_stock_strategies(self, report):
        assert report.ok, report.describe()
        assert report.violations() == []

    def test_counters_are_consistent(self, report):
        assert len(report.cases) == 4
        assert report.runs > 0
        assert 0 < report.feasible_runs <= report.runs
        summary = report.family_summary()
        assert set(summary) == {"chain", "tree"}
        assert sum(row["runs"] for row in summary.values()) == report.runs

    def test_report_serializes_with_schema(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        for key in (
            "config",
            "ok",
            "cases",
            "runs",
            "feasible",
            "cached",
            "disagreements",
            "families",
            "violations",
        ):
            assert key in payload
        assert payload["ok"] is True and payload["violations"] == []
        assert payload["config"]["families"] == ["chain", "tree"]

    def test_below_floor_cases_skip_the_exact_scheduler(self):
        config = FuzzConfig(seeds=25, families=("layered",))
        below = {
            case.seed for case in fuzz_case_tasks(config) if case.below_floor
        }
        assert below, "expected at least one analytically infeasible draw"
        report = run_fuzz(config)
        for family, seed, case_report in report.cases:
            schedulers = {outcome.scheduler for outcome in case_report.outcomes}
            if seed in below:
                assert "exact" not in schedulers
            else:
                assert "exact" in schedulers

    def test_below_floor_with_only_exact_configured_runs_no_pairs(self):
        # The case-level filter may empty the configured scheduler set;
        # that must mean "no runs", never "fall back to every scheduler".
        config = FuzzConfig(seeds=25, families=("layered",), schedulers=("exact",))
        below = {
            case.seed for case in fuzz_case_tasks(config) if case.below_floor
        }
        assert below
        report = run_fuzz(config)
        assert report.ok
        for _, seed, case_report in report.cases:
            schedulers = {outcome.scheduler for outcome in case_report.outcomes}
            if seed in below:
                assert schedulers == set()
            else:
                assert schedulers == {"exact"}

    def test_progress_callback_sees_every_case(self):
        seen = []
        run_fuzz(SMALL, progress=lambda family, seed, _: seen.append((family, seed)))
        assert len(seen) == 4

    def test_resume_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", read=True)
        first = run_fuzz(SMALL, cache=cache)
        assert first.cached_runs == 0
        second = run_fuzz(SMALL, cache=cache)
        assert second.ok
        assert second.cached_runs == second.runs


def _fuzz_after(barrier, root) -> None:
    barrier.wait(60)
    report = run_fuzz(SMALL, cache=ResultCache(root, read=True))
    assert report.ok, report.describe()


class TestConcurrentResume:
    def test_two_runs_file_each_key_once(self, tmp_path):
        # two `repro fuzz --resume` runs on one fresh directory: every pair
        # is computed under its store claim, so each key is filed once
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        runs = [
            ctx.Process(target=_fuzz_after, args=(barrier, str(tmp_path)))
            for _ in range(2)
        ]
        for run in runs:
            run.start()
        for run in runs:
            run.join(300)
        assert [run.exitcode for run in runs] == [0, 0]
        journaled = [key for key, _ in iter_journal_payloads(tmp_path)]
        assert journaled and sorted(journaled) == sorted(set(journaled))
