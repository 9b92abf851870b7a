"""Portfolio task plumbing: config parsing, content addressing, dispatch.

The race config is part of a portfolio task's *spec* — the strategy
subset and deadline change what the task means, so they must hash into
its content address, fully resolved (spelling never splits an address).
These tests pin that hashing contract, the config validation surface,
and the ``run_task`` dispatch/caching path end to end.
"""

import dataclasses
import json

import pytest

from repro import ResultCache, SynthesisTask, run_task
from repro.api.batch import TaskResult
from repro.api.task import TaskError
from repro.portfolio import PortfolioConfig, portfolio_task
from repro.portfolio.config import DEFAULT_STRATEGIES, pair_label, with_deadline
from repro.suite import hal_cdfg


class TestConfigParsing:
    def test_defaults(self):
        config = PortfolioConfig.from_options({})
        assert config.strategies == DEFAULT_STRATEGIES
        assert config.deadline_s is None

    def test_comma_separated_string(self):
        config = PortfolioConfig.from_options(
            {"portfolio_strategies": "engine, pasap+naive"}
        )
        assert config.strategies == ("engine", "pasap+naive")

    @pytest.mark.parametrize(
        "bad",
        [[], [""], [42], 42, ["pasap", None]],
    )
    def test_rejects_malformed_strategy_lists(self, bad):
        with pytest.raises(TaskError):
            PortfolioConfig.from_options({"portfolio_strategies": bad})

    @pytest.mark.parametrize("bad", [True, "soon", 0, -1.5])
    def test_rejects_malformed_deadlines(self, bad):
        with pytest.raises(TaskError):
            PortfolioConfig.from_options({"portfolio_deadline_s": bad})

    def test_options_split_keeps_engine_overrides(self):
        config, overrides = PortfolioConfig.from_task_options(
            {"portfolio_strategies": ["engine"], "max_backtracks": 5}
        )
        assert config.strategies == ("engine",)
        assert overrides == {"max_backtracks": 5}

    def test_round_trips_through_to_options(self):
        config = PortfolioConfig(strategies=("engine", "pasap"), deadline_s=2.0)
        assert PortfolioConfig.from_options(config.to_options()) == config


class TestPairLabel:
    def test_two_phase_pairs_join_with_plus(self):
        assert pair_label("pasap", "greedy") == "pasap+greedy"

    def test_self_binding_engine_is_bare(self):
        assert pair_label("engine", "greedy") == "engine"


class TestPairResolution:
    def test_bare_entries_resolve_against_the_task_binder(self):
        config = PortfolioConfig(strategies=("pasap", "palap+naive"))
        assert config.resolved_pairs("greedy") == (
            ("pasap", "greedy"),
            ("palap", "naive"),
        )
        assert config.labels("greedy") == ("pasap+greedy", "palap+naive")

    def test_duplicates_after_resolution_are_rejected(self):
        config = PortfolioConfig(strategies=("pasap", "pasap+greedy"))
        with pytest.raises(TaskError):
            config.resolved_pairs("greedy")

    def test_a_portfolio_cannot_race_itself(self):
        config = PortfolioConfig(strategies=("engine", "portfolio"))
        with pytest.raises(TaskError):
            config.resolved_pairs("greedy")

    def test_self_binding_engine_rejects_a_binder_suffix(self):
        config = PortfolioConfig(strategies=("engine+greedy",))
        with pytest.raises(TaskError):
            config.resolved_pairs("greedy")

    def test_malformed_entry_shapes(self):
        for entry in ("pasap+", "+greedy", "a+b+c"):
            with pytest.raises(TaskError):
                PortfolioConfig(strategies=(entry,)).resolved_pairs("greedy")


class TestContentAddressing:
    def base_kwargs(self):
        return dict(graph="hal", latency=17, power_budget=12.0)

    def task_with(self, **options):
        return SynthesisTask(
            scheduler="portfolio", options=options, **self.base_kwargs()
        )

    def test_spelling_never_splits_an_address(self):
        bare = self.task_with(portfolio_strategies=["engine", "pasap"])
        explicit = self.task_with(portfolio_strategies=["engine", "pasap+greedy"])
        assert bare.cache_key() == explicit.cache_key()

    def test_strategy_order_is_semantic(self):
        ab = self.task_with(portfolio_strategies=["engine", "pasap"])
        ba = self.task_with(portfolio_strategies=["pasap", "engine"])
        assert ab.cache_key() != ba.cache_key()

    def test_subset_is_semantic(self):
        two = self.task_with(portfolio_strategies=["engine", "pasap"])
        three = self.task_with(portfolio_strategies=["engine", "pasap", "palap"])
        assert two.cache_key() != three.cache_key()

    def test_deadline_is_semantic(self):
        plain = self.task_with(portfolio_strategies=["engine"])
        rushed = self.task_with(portfolio_strategies=["engine"], portfolio_deadline_s=5.0)
        assert plain.cache_key() != rushed.cache_key()

    def test_portfolio_spec_carries_resolved_canonical_config(self):
        task = self.task_with(portfolio_strategies=["pasap"], portfolio_deadline_s=3.0)
        spec = task.canonical_spec()
        assert spec["portfolio"] == {
            "strategies": ["pasap+greedy"],
            "deadline_s": 3.0,
        }

    def test_non_portfolio_specs_are_untouched(self):
        task = SynthesisTask(**self.base_kwargs())
        assert "portfolio" not in task.canonical_spec()

    def test_with_deadline_stamps_a_new_address(self):
        task = portfolio_task("hal", latency=17, power_budget=12.0)
        stamped = with_deadline(task, 4.0)
        assert stamped.options["portfolio_deadline_s"] == 4.0
        assert stamped.cache_key() != task.cache_key()
        assert task.options.get("portfolio_deadline_s") is None  # original intact

    def test_with_deadline_guards(self):
        plain = SynthesisTask(**self.base_kwargs())
        with pytest.raises(TaskError):
            with_deadline(plain, 4.0)
        task = portfolio_task("hal", latency=17, power_budget=12.0)
        for bad in (True, -1.0, "soon"):
            with pytest.raises(TaskError):
                with_deadline(task, bad)


class TestRunTaskDispatch:
    def small_task(self, **kwargs):
        return portfolio_task(
            "hal",
            latency=17,
            power_budget=12.0,
            strategies=["engine", "pasap"],
            **kwargs,
        )

    def test_dispatches_and_names_the_winner(self):
        record = run_task(self.small_task(), keep_result=False)
        assert record.feasible is True
        assert record.winner in ("engine", "pasap+greedy")
        assert record.area is not None
        payload = record.to_dict()
        assert payload["winner"] == record.winner
        assert TaskResult.from_dict(payload).winner == record.winner

    def test_rejects_live_overrides(self):
        with pytest.raises(TaskError):
            run_task(self.small_task(), cdfg=hal_cdfg())

    def test_caches_portfolio_and_winner_addresses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = self.small_task()
        cold = run_task(task, keep_result=False, cache=cache)
        assert cold.cached is False
        warm = run_task(task, keep_result=False, cache=cache)
        assert warm.cached is True
        assert warm.winner == cold.winner
        assert warm.area == cold.area
        # the winner is also filed under its own concrete-strategy address,
        # so a later non-portfolio run of the winning pair is warm too
        scheduler = cold.winner.split("+", 1)[0]
        binder = cold.winner.split("+", 1)[1] if "+" in cold.winner else task.binder
        concrete = dataclasses.replace(
            task, scheduler=scheduler, binder=binder, options={}
        )
        hit = cache.get(concrete)
        assert hit is not None
        assert hit.feasible is True
        assert hit.area == cold.area

    def test_race_directory_is_columnar(self, tmp_path):
        """Contender children write the race's cache directory in the
        one columnar layout."""
        cache = ResultCache(tmp_path / "cache")
        record = run_task(self.small_task(), keep_result=False, cache=cache)
        assert record.feasible is True
        manifest = json.loads((tmp_path / "cache" / "store.json").read_text())
        assert manifest["backend"] == "columnar"
        assert not (tmp_path / "cache" / "objects").exists()

    def test_warm_concrete_record_preanswers_the_race(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = self.small_task()
        engine_task = dataclasses.replace(task, scheduler="engine", options={})
        standalone = run_task(engine_task, keep_result=False, cache=cache)
        assert standalone.feasible is True
        record = run_task(task, keep_result=False, cache=cache)
        # engine is the canonical-first contender and already certified:
        # the race is decided from the cache, bit-identical to standalone
        assert record.winner == "engine"
        assert record.area == standalone.area
