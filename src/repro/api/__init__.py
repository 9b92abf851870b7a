"""The unified task/pipeline API for power-constrained synthesis.

This package is the single entry point the CLI, the experiment drivers
and the batch executor share:

* :class:`~repro.api.task.SynthesisTask` — a declarative,
  JSON-serializable description of one synthesis run (graph, library,
  constraints, strategy names, engine options),
* :class:`~repro.api.pipeline.Pipeline` — a composable sequence of named
  passes (module selection → scheduling → binding → datapath →
  power analysis) resolving strategies through the string-keyed
  registries in :mod:`repro.registries`,
* :func:`~repro.api.batch.run_batch` / :class:`~repro.api.batch.Sweep` —
  many tasks, in parallel on :mod:`repro.exec` workers, with structured
  per-task results.

Quickstart::

    from repro.api import SynthesisTask, run_task

    task = SynthesisTask(graph="hal", latency=17, power_budget=12.0)
    record = run_task(task)
    print(record.result.describe())
"""

from ..registries import (
    BINDERS,
    LIBRARIES,
    SCHEDULERS,
    SELECTORS,
    DuplicateStrategyError,
    StrategyRegistry,
    UnknownStrategyError,
)
from .task import SynthesisTask, TaskError, library_from_dict, library_to_dict
from .pipeline import Pipeline, PipelineContext, PipelineError
from .batch import BatchResults, BatchSummary, Sweep, TaskResult, run_batch, run_task

# Importing the strategies module registers every built-in scheduler,
# binder, selector and library with the registries above.
from . import strategies as _strategies  # noqa: F401  (import for side effect)

__all__ = [
    "SynthesisTask",
    "TaskError",
    "library_from_dict",
    "library_to_dict",
    "Pipeline",
    "PipelineContext",
    "PipelineError",
    "Sweep",
    "TaskResult",
    "BatchResults",
    "BatchSummary",
    "run_batch",
    "run_task",
    "StrategyRegistry",
    "UnknownStrategyError",
    "DuplicateStrategyError",
    "SCHEDULERS",
    "BINDERS",
    "SELECTORS",
    "LIBRARIES",
]
