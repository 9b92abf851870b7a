"""Configuration of the ``portfolio`` racing meta-strategy.

A portfolio task is an ordinary :class:`~repro.api.task.SynthesisTask`
with ``scheduler="portfolio"`` whose ``options`` dict may carry two
reserved keys:

* ``portfolio_strategies`` — the contender subset, as a list (or
  comma-separated string) of ``"scheduler"`` / ``"scheduler+binder"``
  entries.  A bare scheduler resolves against the task's own ``binder``.
* ``portfolio_deadline_s`` — optional: instead of returning the
  canonically-first certified result, collect certified results until
  the deadline and return the best-area one.

Both keys are part of the task's content address (the race config
changes what the spec *means*); every other option key is an ordinary
engine override inherited by each contender.  The *order* of the
``portfolio_strategies`` list is semantic: it is the canonical decision
order of the race (see :mod:`repro.portfolio.runner`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..api.task import (
    PORTFOLIO_SCHEDULER,
    SynthesisTask,
    TaskError,
    split_portfolio_options,
)

__all__ = [
    "DEFAULT_STRATEGIES",
    "PortfolioConfig",
    "SELF_BINDING_SCHEDULERS",
    "pair_label",
    "portfolio_task",
    "with_deadline",
]

#: Schedulers that bind while they schedule: the task's binder field is
#: inert for them, and their pair label is the bare scheduler name.
SELF_BINDING_SCHEDULERS = ("engine",)

#: Default contender subset: the paper's combined engine, both
#: power-constrained heuristics, the classical force-directed scheduler
#: and the exact ILP — a spread of fast/likely and slow/complete.
DEFAULT_STRATEGIES = ("engine", "pasap", "palap", "force_directed", "ilp")


def pair_label(scheduler: str, binder: str) -> str:
    """Canonical label of one (scheduler, binder) pair.

    Self-binding schedulers (``engine``) label as the bare scheduler name;
    every two-phase pair labels as ``"<scheduler>+<binder>"``.  This is
    the currency shared by the portfolio config, the content address of
    a portfolio task and the ``winner`` field on portfolio records.
    """
    if scheduler in SELF_BINDING_SCHEDULERS:
        return scheduler
    return f"{scheduler}+{binder}"


def _parse_entries(value: Any) -> Tuple[str, ...]:
    if isinstance(value, str):
        entries: Sequence[Any] = [part for part in value.split(",") if part.strip()]
    elif isinstance(value, (list, tuple)):
        entries = value
    else:
        raise TaskError(
            "portfolio_strategies must be a list of 'scheduler' / "
            f"'scheduler+binder' entries, got {value!r}"
        )
    cleaned: List[str] = []
    for entry in entries:
        if not isinstance(entry, str) or not entry.strip():
            raise TaskError(f"portfolio strategy entries must be non-empty strings, got {entry!r}")
        cleaned.append(entry.strip())
    if not cleaned:
        raise TaskError("portfolio_strategies must name at least one strategy")
    return tuple(cleaned)


@dataclass(frozen=True)
class PortfolioConfig:
    """The race config of one portfolio task: who races, and for how long.

    Attributes:
        strategies: Contender entries in canonical decision order; each a
            ``"scheduler"`` or ``"scheduler+binder"`` string.
        deadline_s: ``None`` races to the canonically-first certified
            result; a positive number collects certified results until
            the deadline and returns the best-area one.
    """

    strategies: Tuple[str, ...] = DEFAULT_STRATEGIES
    deadline_s: Optional[float] = None

    @classmethod
    def from_options(cls, config_options: Dict[str, Any]) -> "PortfolioConfig":
        """Build and validate a config from the reserved option keys only."""
        strategies = config_options.get("portfolio_strategies")
        strategies = (
            DEFAULT_STRATEGIES if strategies is None else _parse_entries(strategies)
        )
        deadline = config_options.get("portfolio_deadline_s")
        if deadline is not None:
            deadline = check_deadline(deadline, "portfolio_deadline_s")
        return cls(strategies=strategies, deadline_s=deadline)

    @classmethod
    def from_task_options(
        cls, options: Dict[str, Any]
    ) -> Tuple["PortfolioConfig", Dict[str, Any]]:
        """Split a portfolio task's options into (config, engine overrides)."""
        config_options, engine_overrides = split_portfolio_options(options)
        return cls.from_options(config_options), engine_overrides

    @classmethod
    def from_task(cls, task: SynthesisTask) -> "PortfolioConfig":
        """The config of one portfolio task (raises on non-portfolio tasks)."""
        if task.scheduler != PORTFOLIO_SCHEDULER:
            raise TaskError(
                f"task scheduler is {task.scheduler!r}, not {PORTFOLIO_SCHEDULER!r}"
            )
        config, _ = cls.from_task_options(task.options)
        return config

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def resolved_pairs(self, default_binder: str) -> Tuple[Tuple[str, str], ...]:
        """The contender (scheduler, binder) pairs in canonical order.

        Bare scheduler entries resolve against ``default_binder`` (the
        portfolio task's own binder field); duplicates after resolution
        and recursive ``portfolio`` entries are rejected.
        """
        pairs: List[Tuple[str, str]] = []
        seen = set()
        for entry in self.strategies:
            parts = [part.strip() for part in entry.split("+")]
            if len(parts) == 1:
                scheduler, binder = parts[0], default_binder
            elif len(parts) == 2 and all(parts):
                scheduler, binder = parts
            else:
                raise TaskError(
                    f"malformed portfolio strategy entry {entry!r}; "
                    "use 'scheduler' or 'scheduler+binder'"
                )
            if scheduler == PORTFOLIO_SCHEDULER:
                raise TaskError("a portfolio cannot race itself as a contender")
            if scheduler in SELF_BINDING_SCHEDULERS and len(parts) == 2:
                raise TaskError(
                    f"scheduler {scheduler!r} binds itself; drop the '+{binder}' suffix"
                )
            if scheduler in SELF_BINDING_SCHEDULERS:
                binder = default_binder
            label = pair_label(scheduler, binder)
            if label in seen:
                raise TaskError(f"duplicate portfolio contender {label!r}")
            seen.add(label)
            pairs.append((scheduler, binder))
        return tuple(pairs)

    def labels(self, default_binder: str) -> Tuple[str, ...]:
        """Canonical pair labels of the contenders, in decision order."""
        return tuple(
            pair_label(scheduler, binder)
            for scheduler, binder in self.resolved_pairs(default_binder)
        )

    def canonical(self, default_binder: str) -> Dict[str, Any]:
        """The hashable form joining the task's canonical spec.

        Entries are fully resolved (``"pasap"`` with a greedy task binder
        and ``"pasap+greedy"`` hash identically) so spelling never splits
        a content address.
        """
        return {
            "strategies": list(self.labels(default_binder)),
            "deadline_s": self.deadline_s,
        }

    def to_options(self) -> Dict[str, Any]:
        """The reserved option keys that reproduce this config on a task."""
        options: Dict[str, Any] = {"portfolio_strategies": list(self.strategies)}
        if self.deadline_s is not None:
            options["portfolio_deadline_s"] = self.deadline_s
        return options


def portfolio_task(
    graph,
    *,
    latency: Optional[int] = None,
    power_budget: Optional[float] = None,
    register_budget: Optional[int] = None,
    library: Union[str, Dict[str, Any]] = "table1",
    binder: str = "greedy",
    selector: str = "min_power",
    strategies: Optional[Sequence[str]] = None,
    deadline_s: Optional[float] = None,
    options: Optional[Dict[str, Any]] = None,
    label: Optional[str] = None,
) -> SynthesisTask:
    """Convenience constructor for a portfolio task.

    ``strategies`` / ``deadline_s`` land in the reserved option keys;
    ``options`` carries the engine overrides every contender inherits.
    """
    merged = dict(options or {})
    if strategies is not None:
        merged["portfolio_strategies"] = list(strategies)
    if deadline_s is not None:
        merged["portfolio_deadline_s"] = deadline_s
    task = SynthesisTask.of(
        graph,
        library=library,
        latency=latency,
        power_budget=power_budget,
        register_budget=register_budget,
        scheduler=PORTFOLIO_SCHEDULER,
        binder=binder,
        selector=selector,
        options=merged,
        label=label,
    )
    PortfolioConfig.from_task(task)  # validate eagerly, not at hash time
    return task


def check_deadline(value: Any, name: str = "deadline_s") -> float:
    """``value`` as a deadline in seconds; :class:`TaskError` unless positive and finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TaskError(f"{name} must be a number of seconds, got {value!r}")
    # NaN and infinity would pass a plain ``> 0`` and break the race's waits
    if not 0 < value < math.inf:
        raise TaskError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def with_deadline(task: SynthesisTask, deadline_s: float) -> SynthesisTask:
    """A copy of a portfolio task with ``portfolio_deadline_s`` set.

    This is how the serving layer applies a submission-level
    ``deadline_s`` job option: the deadline is part of the task's content
    address, so it must be stamped on before admission keys the job.

    Raises:
        TaskError: when the task is not a portfolio task or the deadline
            is not a positive number.
    """
    if task.scheduler != PORTFOLIO_SCHEDULER:
        raise TaskError(
            f"deadline_s applies to portfolio tasks only; task scheduler is "
            f"{task.scheduler!r}"
        )
    options = dict(task.options)
    options["portfolio_deadline_s"] = check_deadline(deadline_s)
    return dataclasses.replace(task, options=options)
