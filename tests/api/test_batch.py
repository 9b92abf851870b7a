"""Unit tests for the batch executor: records, parity, Sweep expansion."""

import json

import pytest

from repro.api import Sweep, SynthesisTask, TaskResult, run_batch, run_task
from repro.api.task import TaskError


def _summary(record):
    return (
        record.feasible,
        record.area,
        record.fu_area,
        record.peak_power,
        record.latency,
        record.backtracks,
        record.error_type,
    )


class TestRunTask:
    def test_feasible_task_keeps_full_result(self):
        record = run_task(SynthesisTask(graph="hal", latency=17, power_budget=12.0))
        assert record.feasible
        assert record.result is not None
        assert record.area == record.result.total_area
        assert record.elapsed > 0

    def test_infeasible_task_is_a_record_not_an_exception(self):
        record = run_task(SynthesisTask(graph="hal", latency=17, power_budget=2.0))
        assert not record.feasible
        assert record.result is None and record.area is None
        assert record.error_type == "PowerInfeasibleSynthesisError"
        assert record.error

    def test_verify_failure_counts_as_infeasible(self):
        record = run_task(
            SynthesisTask(graph="hal", latency=20, power_budget=5.0, scheduler="asap")
        )
        assert not record.feasible
        # The deep certificate checker flags the power violation; its
        # error is both a SynthesisError and a ScheduleError.
        assert record.error_type == "CertificateError"
        assert "power" in record.error

    def test_record_round_trips_through_dict(self):
        record = run_task(SynthesisTask(graph="hal", latency=17, power_budget=12.0))
        restored = TaskResult.from_dict(json.loads(json.dumps(record.to_dict())))
        assert _summary(restored) == _summary(record)
        assert restored.task == record.task

    def test_verify_kwarg_certifies_a_clean_result(self):
        record = run_task(
            SynthesisTask(graph="hal", latency=17, power_budget=12.0), verify=True
        )
        assert record.feasible

    def test_verify_kwarg_raises_on_an_uncertified_result(self):
        from repro.verify import CertificateError

        # With the task's own verify gate off, the power-oblivious asap
        # schedule comes back "feasible" despite busting the budget; the
        # caller-side assertion must refuse it loudly.
        task = SynthesisTask(
            graph="hal", latency=20, power_budget=5.0, scheduler="asap", verify=False
        )
        assert run_task(task).feasible  # the lie, without the assertion
        with pytest.raises(CertificateError) as excinfo:
            run_task(task, verify=True)
        assert excinfo.value.report.by_kind("power")

    def test_verify_kwarg_never_caches_the_uncertified_result(self, tmp_path):
        from repro.explore import ResultCache
        from repro.verify import CertificateError

        cache = ResultCache(tmp_path / "cache", read=True)
        task = SynthesisTask(
            graph="hal", latency=20, power_budget=5.0, scheduler="asap", verify=False
        )
        with pytest.raises(CertificateError):
            run_task(task, cache=cache, verify=True)
        assert len(cache) == 0


class TestCacheKinds:
    """Only an on-disk ``ResultCache`` is claimed or sent to a worker."""

    TASK = SynthesisTask(graph="hal", latency=17, power_budget=12.0)

    def test_a_memo_takes_no_claim_and_sends_no_directory(self):
        from repro.api.batch import claim_or_wait, worker_payload
        from repro.explore.refine import _ProbeMemo

        memo = _ProbeMemo()
        assert claim_or_wait(memo, self.TASK) == (None, None)
        payload = worker_payload(self.TASK, memo)
        assert payload["cache_dir"] is None and not payload["cache_read"]

    def test_a_write_only_cache_is_sent_but_not_claimed(self, tmp_path):
        from repro.api.batch import claim_or_wait, worker_payload
        from repro.explore.cache import ResultCache

        cache = ResultCache(tmp_path / "cache", read=False)
        assert claim_or_wait(cache, self.TASK) == (None, None)
        payload = worker_payload(self.TASK, cache)
        assert payload["cache_dir"] == str(cache.root) and not payload["cache_read"]

    def test_a_readable_cache_is_claimed_and_sent(self, tmp_path):
        from repro.api.batch import claim_or_wait, worker_payload
        from repro.explore.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        hit, claim = claim_or_wait(cache, self.TASK)
        assert hit is None and claim is not None
        claim.release()
        payload = worker_payload(self.TASK, cache)
        assert payload["cache_dir"] == str(cache.root) and payload["cache_read"]


class TestRunBatch:
    @pytest.fixture(scope="class")
    def sweep_tasks(self):
        budgets = [6, 8, 9, 10, 11, 12, 14, 16, 20, 25, 30, 40, 60, 80, 100, 150]
        return Sweep("hal", 17, budgets).tasks()

    def test_parallel_matches_sequential_on_16_point_sweep(self, sweep_tasks):
        sequential = run_batch(sweep_tasks)
        parallel = run_batch(sweep_tasks, jobs=2, keep_results=False)
        assert len(sequential) == len(parallel) == 16
        for seq, par in zip(sequential, parallel):
            assert _summary(seq) == _summary(par)
            assert par.result is None  # workers return scalars only

    def test_order_is_preserved(self, sweep_tasks):
        records = run_batch(sweep_tasks)
        assert [r.task.power_budget for r in records] == sorted(
            t.power_budget for t in sweep_tasks
        )

    def test_sequential_default_keeps_results(self, sweep_tasks):
        records = run_batch(sweep_tasks[:2])
        assert all(r.result is not None for r in records if r.feasible)

    def test_custom_pipeline_rejected_in_parallel(self, sweep_tasks):
        from repro.api import Pipeline

        with pytest.raises(ValueError):
            run_batch(sweep_tasks, jobs=2, pipeline=Pipeline.default())

    def test_keep_results_rejected_in_parallel(self, sweep_tasks):
        with pytest.raises(ValueError):
            run_batch(sweep_tasks, jobs=2, keep_results=True)

    def test_single_task_runs_in_process_even_with_jobs(self):
        records = run_batch(
            [SynthesisTask(graph="hal", latency=17, power_budget=12.0)], jobs=4
        )
        assert records[0].result is not None

    def test_parallel_portfolio_races_with_a_cache_match_sequential(self, tmp_path):
        from repro.explore.cache import ResultCache

        tasks = [
            SynthesisTask(
                graph="hal", latency=17, power_budget=budget, scheduler="portfolio",
                options={"portfolio_strategies": ["engine", "pasap"]},
            )
            for budget in (12.0, 15.0)
        ]
        sequential = run_batch(tasks)
        parallel = run_batch(tasks, jobs=2, cache=ResultCache(tmp_path / "cache"))
        for seq, par in zip(sequential, parallel):
            assert _summary(seq) == _summary(par)
            assert seq.winner == par.winner is not None

    def test_unknown_scheduler_surfaces_cleanly_from_workers(self):
        from repro.registries import UnknownStrategyError

        tasks = [
            SynthesisTask(graph="hal", latency=17, power_budget=12.0),
            SynthesisTask(graph="hal", latency=17, scheduler="bogus"),
        ]
        with pytest.raises(UnknownStrategyError, match="bogus"):
            run_batch(tasks, jobs=2, keep_results=False)


class TestSweep:
    def test_expands_sorted_tasks(self):
        sweep = Sweep("hal", 17, [12.0, 8.0, 20.0])
        tasks = sweep.tasks()
        assert [t.power_budget for t in tasks] == [8.0, 12.0, 20.0]
        assert all(t.graph == "hal" and t.latency == 17 for t in tasks)

    def test_empty_budgets_rejected(self):
        with pytest.raises(TaskError):
            Sweep("hal", 17, []).tasks()

    def test_scalar_budgets_rejected(self):
        with pytest.raises(TaskError):
            Sweep("hal", 17, 5).tasks()

    def test_dict_round_trip(self):
        sweep = Sweep("hal", 17, [8.0, 12.0], scheduler="pasap", label="s")
        restored = Sweep.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert restored == sweep

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        with pytest.raises(TaskError):
            Sweep.from_dict({"graph": "hal", "latency": 17, "budgets": [1.0]})
        with pytest.raises(TaskError):
            Sweep.from_dict({"graph": "hal", "latency": 17})

    def test_run_matches_explicit_batch(self):
        sweep = Sweep("hal", 17, [10.0, 12.0])
        via_sweep = sweep.run()
        via_batch = run_batch(sweep.tasks())
        assert [_summary(a) for a in via_sweep] == [_summary(b) for b in via_batch]


class TestExploreParity:
    def test_power_area_sweep_parallel_identical(self, hal, library):
        from repro.synthesis.explore import power_area_sweep

        budgets = [9.0, 10.0, 12.0, 16.0, 25.0, 60.0]
        sequential = power_area_sweep(hal, library, 17, budgets)
        parallel = power_area_sweep(hal, library, 17, budgets, jobs=2)
        assert sequential.points == parallel.points
