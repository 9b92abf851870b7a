"""Unit tests for SynthesisTask specs: validation, resolution, round-trips."""

import hashlib
import json

import pytest

from repro.api.task import (
    SynthesisTask,
    TaskError,
    compact_json,
    library_from_dict,
    library_to_dict,
    tasks_from_json,
)
from repro.ir.operation import Operation, OpType
from repro.ir.serialize import to_dict as cdfg_to_dict
from repro.suite.registry import BENCHMARKS, build_benchmark, register_benchmark
from repro.synthesis.engine import EngineOptions


class TestValidation:
    def test_graph_must_be_name_or_dict(self):
        with pytest.raises(TaskError):
            SynthesisTask(graph=42)

    def test_latency_and_power_must_be_positive(self):
        with pytest.raises(TaskError):
            SynthesisTask(graph="hal", latency=0)
        with pytest.raises(TaskError):
            SynthesisTask(graph="hal", latency=17, power_budget=-1.0)

    def test_options_must_be_dict(self):
        with pytest.raises(TaskError):
            SynthesisTask(graph="hal", latency=17, options=[1, 2])

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(TaskError) as excinfo:
            SynthesisTask.from_dict({"graph": "hal", "lateny": 17})
        assert "lateny" in str(excinfo.value)

    def test_from_dict_requires_graph(self):
        with pytest.raises(TaskError):
            SynthesisTask.from_dict({"latency": 17})

    def test_numeric_strings_are_coerced(self):
        task = SynthesisTask(graph="hal", latency="20", power_budget="12.5")
        assert task.latency == 20 and isinstance(task.latency, int)
        assert task.power_budget == 12.5 and isinstance(task.power_budget, float)

    def test_non_numeric_constraints_raise_task_error(self):
        with pytest.raises(TaskError):
            SynthesisTask(graph="hal", latency="abc")
        with pytest.raises(TaskError):
            SynthesisTask(graph="hal", latency=17, power_budget=[12.0])

    def test_strategy_names_must_be_strings(self):
        with pytest.raises(TaskError):
            SynthesisTask(graph="hal", latency=17, scheduler=3)


class TestRoundTrip:
    def test_json_round_trip_named_graph(self):
        task = SynthesisTask(
            graph="hal",
            latency=17,
            power_budget=12.0,
            scheduler="pasap",
            binder="naive",
            selector="min_area",
            options={"trace": False},
            verify=False,
            label="round-trip",
        )
        restored = SynthesisTask.from_json(task.to_json())
        assert restored == task

    def test_json_round_trip_inline_graph_and_library(self, hal, library):
        task = SynthesisTask.of(hal, library=library, latency=17, power_budget=12.0)
        restored = SynthesisTask.from_json(task.to_json(indent=2))
        assert restored == task
        # The inline specs materialize back into equivalent objects.
        assert restored.resolve_graph().name == hal.name
        assert len(restored.resolve_graph()) == len(hal)
        assert restored.resolve_library().name == library.name
        assert len(restored.resolve_library()) == len(library)

    def test_to_dict_is_json_safe(self, hal, library):
        task = SynthesisTask.of(
            hal, library=library, latency=17, options=EngineOptions(trace=False)
        )
        json.dumps(task.to_dict())  # must not raise


class TestOf:
    def test_engine_options_instance_becomes_plain_dict(self, hal):
        task = SynthesisTask.of(hal, latency=17, options=EngineOptions(delay_area_weight=0.0))
        assert task.options["delay_area_weight"] == 0.0
        assert isinstance(task.options, dict)

    def test_bad_options_type_rejected(self, hal):
        with pytest.raises(TaskError):
            SynthesisTask.of(hal, latency=17, options="trace=False")

    def test_graph_name_for_inline_and_named(self, hal):
        assert SynthesisTask(graph="hal", latency=17).graph_name == "hal"
        inline = SynthesisTask.of(hal, latency=17)
        assert inline.graph_name == hal.name


class TestResolution:
    def test_named_graph_resolves_via_benchmark_registry(self):
        task = SynthesisTask(graph="hal", latency=17)
        assert task.resolve_graph().name == "hal"

    def test_unknown_benchmark_raises_keyerror(self):
        with pytest.raises(KeyError):
            SynthesisTask(graph="not-a-benchmark", latency=17).resolve_graph()

    def test_named_library_resolves_via_registry(self):
        task = SynthesisTask(graph="hal", latency=17, library="single")
        assert "single" in task.resolve_library().name or len(task.resolve_library()) > 0

    def test_inline_graph_round_trip(self, hal):
        task = SynthesisTask(graph=cdfg_to_dict(hal), latency=17)
        assert sorted(task.resolve_graph().operation_names()) == sorted(
            hal.operation_names()
        )

    def test_named_graph_resolves_to_an_independent_copy(self):
        task = SynthesisTask(graph="hal", latency=17)
        first = task.resolve_graph()
        assert first is not task.resolve_graph()
        assert cdfg_to_dict(first) == cdfg_to_dict(build_benchmark("hal"))
        first.add_operation(Operation("poisoned", OpType.ADD))
        first.add_edge("in_x", "poisoned")
        again = task.resolve_graph()
        assert "poisoned" not in again
        assert cdfg_to_dict(again) == cdfg_to_dict(build_benchmark("hal"))
        assert again.topological_order() == build_benchmark("hal").topological_order()

    def test_replacing_a_benchmark_re_resolves_it(self):
        task = SynthesisTask(graph="memo-probe", latency=17)

        def plain():
            return build_benchmark("hal").copy(name="memo-probe")

        def variant():
            graph = plain()
            graph.add_operation(Operation("extra", OpType.ADD))
            graph.add_edge("in_x", "extra")
            return graph

        try:
            register_benchmark("memo-probe", plain)
            assert "extra" not in task.resolve_graph()
            register_benchmark("memo-probe", variant, replace=True)
            assert "extra" in task.resolve_graph()
        finally:
            BENCHMARKS.unregister("memo-probe")


class TestLibraryDict:
    def test_library_round_trip_preserves_modules(self, library):
        restored = library_from_dict(library_to_dict(library))
        assert {m.name for m in restored.modules()} == {m.name for m in library.modules()}
        for module in library.modules():
            twin = restored.module(module.name)
            assert twin.area == module.area
            assert twin.latency == module.latency
            assert twin.power == module.power
            assert twin.supported_ops == module.supported_ops

    def test_malformed_library_dict_raises(self):
        with pytest.raises(TaskError):
            library_from_dict({"modules": [{"name": "x"}]})


class TestBatchFileParsing:
    def test_list_form(self):
        tasks = tasks_from_json('[{"graph": "hal", "latency": 17}]')
        assert len(tasks) == 1 and tasks[0].graph == "hal"

    def test_tasks_and_sweeps_form(self):
        text = json.dumps(
            {
                "tasks": [{"graph": "hal", "latency": 17, "power_budget": 12.0}],
                "sweeps": [
                    {"graph": "hal", "latency": 17, "power_budgets": [10.0, 12.0]}
                ],
            }
        )
        tasks = tasks_from_json(text)
        assert len(tasks) == 3
        assert [t.power_budget for t in tasks[1:]] == [10.0, 12.0]

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(TaskError):
            tasks_from_json('{"task": []}')

    def test_empty_batch_rejected(self):
        with pytest.raises(TaskError):
            tasks_from_json("[]")


class TestCacheKey:
    def base(self, **kwargs):
        return SynthesisTask(graph="hal", latency=17, power_budget=12.0, **kwargs)

    def test_key_is_a_sha256_hex_digest_and_stable(self):
        key = self.base().cache_key()
        assert len(key) == 64 and int(key, 16) >= 0
        assert self.base().cache_key() == key  # fresh instance, same spec

    def test_named_and_inline_spellings_share_one_address(self, hal, library):
        named = self.base()
        inline_graph = SynthesisTask.of(hal, latency=17, power_budget=12.0)
        inline_both = SynthesisTask.of(
            hal, library=library, latency=17, power_budget=12.0
        )
        assert named.cache_key() == inline_graph.cache_key() == inline_both.cache_key()

    def test_operation_and_edge_order_do_not_matter(self, hal):
        shuffled = cdfg_to_dict(hal)
        shuffled["operations"] = list(reversed(shuffled["operations"]))
        shuffled["edges"] = list(reversed(shuffled["edges"]))
        task = SynthesisTask(graph=shuffled, latency=17, power_budget=12.0)
        assert task.cache_key() == self.base().cache_key()

    def test_label_is_excluded_from_the_address(self):
        assert self.base(label="a").cache_key() == self.base(label="b").cache_key()

    def test_every_semantic_field_changes_the_address(self, library):
        baseline = self.base().cache_key()
        variants = [
            SynthesisTask(graph="cosine", latency=17, power_budget=12.0),
            SynthesisTask(graph="hal", latency=18, power_budget=12.0),
            SynthesisTask(graph="hal", latency=17, power_budget=12.5),
            self.base(scheduler="pasap"),
            self.base(binder="naive"),
            self.base(selector="min_area"),
            self.base(options={"delay_area_weight": 2.0}),
            self.base(verify=False),
            SynthesisTask(graph="hal", latency=17, power_budget=12.0, library="single"),
        ]
        keys = [task.cache_key() for task in variants]
        assert baseline not in keys
        assert len(set(keys)) == len(keys)

    def test_structural_graph_change_changes_the_address(self, hal):
        mutated = cdfg_to_dict(hal)
        mutated["edges"] = mutated["edges"][:-1]
        task = SynthesisTask(graph=mutated, latency=17, power_budget=12.0)
        assert task.cache_key() != self.base().cache_key()

    def test_default_options_spellings_share_one_address(self):
        baseline = self.base().cache_key()
        explicit = SynthesisTask.of(
            "hal", latency=17, power_budget=12.0, options=EngineOptions()
        )
        assert explicit.cache_key() == baseline

    def test_unknown_option_key_rejected_at_hash_time(self):
        task = self.base(options={"bogus_option": 1})
        with pytest.raises(TaskError):
            task.cache_key()

    def test_malformed_inline_graph_raises_task_error(self):
        task = SynthesisTask(graph={"name": "x", "operations": [{}], "edges": []},
                             latency=17, power_budget=12.0)
        with pytest.raises(TaskError):
            task.cache_key()

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"library": "single"},
            {"options": {"delay_area_weight": 2.0}},
            {"scheduler": "portfolio", "options": {"portfolio_strategies": ["engine", "pasap"]}},
        ],
        ids=["defaults", "named-library", "options", "portfolio"],
    )
    def test_a_named_key_hashes_the_encoded_canonical_spec(self, fields):
        task = self.base(**fields)
        expected = hashlib.sha256(compact_json(task.canonical_spec()).encode()).hexdigest()
        assert task.cache_key() == expected

    def test_a_field_spelling_the_graph_placeholder_still_hashes_its_spec(self):
        from repro.api.task import SPLICE_TOKEN

        task = self.base(selector=SPLICE_TOKEN)
        expected = hashlib.sha256(compact_json(task.canonical_spec()).encode()).hexdigest()
        assert task.cache_key() == expected
        assert task.canonical_spec()["selector"] == SPLICE_TOKEN

    def test_the_compact_json_is_encoded_once(self):
        task = self.base(label="x")
        text = task.to_compact_json()
        assert text == compact_json(task.to_dict())
        assert task.to_compact_json() is text
