"""Spans around the program's public layer boundaries, recorded from outside.

:func:`install` swaps a timing wrapper onto each layer entry point the
benchmark's workloads reach, without touching the program's source: the
passes of ``DEFAULT_PASSES`` (rebuilt into a traced ``Pipeline`` that
``Pipeline.default`` returns), graph resolution and ``from_dict``,
``cache_key``, ``ResultCache.get``/``put``, ``check_certificate``,
``run_portfolio`` and the serve ``Client`` calls.  Spans stay in memory
and are written out once, at the end of the run.

A layer's *self time* is its span's duration minus what its child spans
cover, so the self times of all spans under a root add up to the root's
duration; the root's own self time is the part no layer claimed.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Span name of each default pipeline pass; ``schedule`` is named after
#: the layer that does the work for the task's scheduler.
PASS_SPANS = {
    "select": "library.select",
    "bind": "binding.bind",
    "finalize": "api.finalize",
    "analyze": "api.analyze",
}
SCHEDULE_SPANS = {"engine": "synthesis.engine", "ilp": "lp.ilp"}


class Tracer:
    """Records nested spans (name, start, end, parent, request) per thread."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        #: PortfolioOutcome of every traced race, for the contender counts.
        self.races: List[Any] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        entry = [name, time.perf_counter_ns(), 0, parent, request]
        with self._lock:
            index = len(self.spans)
            self.spans.append(entry)
        stack.append(index)
        try:
            yield entry
        finally:
            entry[2] = time.perf_counter_ns()
            stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def _self_ns(self, since: int) -> List[tuple]:
        """(name, self ns) of every span recorded from index ``since``."""
        covered: Dict[int, int] = defaultdict(int)
        for _, start, end, parent, _ in self.spans[since:]:
            if parent >= since:
                covered[parent] += end - start
        return [(name, end - start - covered[index])
                for index, (name, start, end, _, _) in enumerate(self.spans[since:], since)]

    def self_seconds(self, since: int = 0) -> Dict[str, float]:
        """Total self time per span name over spans recorded from ``since``."""
        totals: Dict[str, float] = defaultdict(float)
        for name, self_ns in self._self_ns(since):
            totals[name] += self_ns / 1e9
        return dict(totals)

    def median_ms(self, name: str, since: int = 0) -> float:
        """Median duration of one call of ``name``, children included."""
        values = [(end - start) / 1e6 for n, start, end, _, _ in self.spans[since:] if n == name]
        return statistics.median(values) if values else 0.0

    def median_self_ms(self, name: str, since: int = 0) -> float:
        """Median self time of one call of ``name``."""
        values = [self_ns / 1e6 for n, self_ns in self._self_ns(since) if n == name]
        return statistics.median(values) if values else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent, "request": request}) + "\n")


def _patch(undo: List, owner: Any, attribute: str, value: Any) -> None:
    undo.append((owner, attribute, owner.__dict__[attribute]))
    setattr(owner, attribute, value)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced entry point; return the function that unwraps them."""
    import repro.api.task as task_module
    import repro.portfolio.runner as runner_module
    import repro.verify.certificate as certificate_module
    from repro.api.pipeline import DEFAULT_PASSES, Pipeline
    from repro.api.task import SynthesisTask
    from repro.explore.cache import ResultCache
    from repro.serve.client import Client

    def traced_schedule(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(ctx):
            name = SCHEDULE_SPANS.get(ctx.task.scheduler, "scheduling.schedule")
            with tracer.span(name):
                return fn(ctx)

        return traced

    race = runner_module.run_portfolio

    @functools.wraps(race)
    def traced_race(*args, **kwargs):
        with tracer.span("portfolio.race"):
            outcome = race(*args, **kwargs)
        tracer.races.append(outcome)
        return outcome

    passes = [
        (name, traced_schedule(fn) if name == "schedule" else tracer.wrap(PASS_SPANS[name], fn))
        for name, fn in DEFAULT_PASSES
    ]
    traced_pipeline = Pipeline(passes)
    undo: List = []
    _patch(undo, Pipeline, "default", classmethod(lambda cls: traced_pipeline))
    _patch(undo, Pipeline, "context", tracer.wrap("api.resolve", Pipeline.context))
    _patch(undo, task_module, "cdfg_from_dict", tracer.wrap("ir.from_dict", task_module.cdfg_from_dict))
    _patch(undo, SynthesisTask, "cache_key", tracer.wrap("api.cache_key", SynthesisTask.cache_key))
    _patch(undo, ResultCache, "get", tracer.wrap("explore.cache_get", ResultCache.get))
    _patch(undo, ResultCache, "put", tracer.wrap("explore.cache_put", ResultCache.put))
    _patch(undo, certificate_module, "check_certificate",
           tracer.wrap("verify.certificate", certificate_module.check_certificate))
    _patch(undo, runner_module, "run_portfolio", traced_race)
    _patch(undo, Client, "submit", tracer.wrap("serve.submit", Client.submit))
    _patch(undo, Client, "job", tracer.wrap("serve.poll", Client.job))

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall
