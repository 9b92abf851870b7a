"""The legacy entry points must delegate to the task/pipeline API."""

from repro.api import Pipeline, SynthesisTask
from repro.synthesis.engine import synthesize
from repro.synthesis.explore import synthesize_point


class TestDelegation:
    def test_synthesize_equals_task_run(self, hal, library):
        via_shim = synthesize(hal, library, latency=17, max_power=12.0)
        task = SynthesisTask.of(hal, library=library, latency=17, power_budget=12.0)
        via_task = Pipeline.default().run(task)
        assert via_shim.total_area == via_task.total_area
        assert via_shim.peak_power == via_task.peak_power
        assert via_shim.schedule.start_times == via_task.schedule.start_times

    def test_synthesize_records_pipeline_metadata(self, hal, library):
        result = synthesize(hal, library, latency=17, max_power=12.0)
        assert result.metadata["library"] == library.name
        assert result.metadata["scheduler"] == "engine"

    def test_synthesize_point_infeasible_still_none(self, hal, library):
        assert synthesize_point(hal, library, 17, 2.0) is None
        assert synthesize_point(hal, library, 17, 12.0) is not None
