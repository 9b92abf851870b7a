"""Declarative synthesis task specifications.

A :class:`SynthesisTask` fully describes one synthesis run as plain data:
the graph (a registered benchmark name or an inline CDFG dictionary), the
technology library (a registered name or an inline module table), the
(T, P) constraints, and the names of the strategies to use for module
selection, scheduling and binding.  Because every field is a string,
number or plain dictionary, tasks serialize to JSON and can be shipped to
worker processes, stored next to experiment results, or written by hand
in a batch file for ``repro batch``.

Strategy names resolve through :mod:`repro.registries` at run time, so a
task file can use any scheduler or binder a plugin has registered.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..ir.cdfg import CDFG
from ..ir.operation import OpType
from ..ir.serialize import from_dict as cdfg_from_dict
from ..ir.serialize import to_dict as cdfg_to_dict
from ..library.library import FULibrary
from ..library.module import FUModule
from ..registries import LIBRARIES
from ..suite.registry import BenchmarkSpec, get_benchmark


class TaskError(ValueError):
    """A malformed task specification."""


def compact_json(payload: Any) -> str:
    """Compact JSON with sorted keys.

    The one encoding of a content address's canonical spec, a serve
    log line and an HTTP response.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: Stands in for already-encoded text (a registered benchmark's graph, a
#: job's task) while the payload around it is encoded.  Random per
#: process, so no submitted string is built to collide with it.
SPLICE_TOKEN = f"repro-splice-{os.urandom(16).hex()}"
_SPLICE_TOKEN_JSON = json.dumps(SPLICE_TOKEN)


def splice_json(payload: Any, slots: int, text: str, plain: Callable[[], Any]) -> str:
    """:func:`compact_json` of ``payload`` with ``text`` in place of the
    :data:`SPLICE_TOKEN` it holds in ``slots`` places.

    Should the token turn up anywhere else, ``plain()`` (the payload with
    the encoded value itself there) is encoded instead.
    """
    encoded = compact_json(payload)
    if encoded.count(_SPLICE_TOKEN_JSON) != slots:
        return compact_json(plain())
    return encoded.replace(_SPLICE_TOKEN_JSON, text)


#: Bump when the canonical spec layout (or anything that changes what a
#: given spec *means*) changes, so stale on-disk cache entries never match.
#: v2: register_budget joined the spec.
CACHE_KEY_VERSION = 2

#: Name of the racing meta-strategy.  Tasks with this scheduler are
#: executed by :func:`repro.portfolio.run_portfolio` (dispatched from
#: ``run_task``), never by a pipeline pass.
PORTFOLIO_SCHEDULER = "portfolio"

#: Option keys reserved for the portfolio meta-strategy's own config.
#: On a portfolio task they are split out of ``options`` before the
#: engine-option validation; on any other task they are unknown options.
PORTFOLIO_OPTION_KEYS = ("portfolio_strategies", "portfolio_deadline_s")


def split_portfolio_options(options: Dict[str, Any]) -> "tuple[Dict[str, Any], Dict[str, Any]]":
    """Split a portfolio task's options into (portfolio config, engine overrides).

    The engine overrides are what every contender of the race inherits;
    the portfolio keys configure the race itself (strategy subset,
    deadline).  See :class:`repro.portfolio.PortfolioConfig`.
    """
    config = {k: v for k, v in options.items() if k in PORTFOLIO_OPTION_KEYS}
    rest = {k: v for k, v in options.items() if k not in PORTFOLIO_OPTION_KEYS}
    return config, rest


# --------------------------------------------------------------------------- #
# Inline library (de)serialization
# --------------------------------------------------------------------------- #
def library_to_dict(library: FULibrary) -> Dict[str, Any]:
    """Serialize a library so a task can carry a custom one inline."""
    return {
        "name": library.name,
        "modules": [
            {
                "name": module.name,
                "ops": sorted(op.value for op in module.supported_ops),
                "area": module.area,
                "latency": module.latency,
                "power": module.power,
            }
            for module in library.modules()
        ],
    }


def library_from_dict(data: Dict[str, Any]) -> FULibrary:
    """Reconstruct a library from :func:`library_to_dict` output."""
    try:
        modules = [
            FUModule.make(
                entry["name"],
                {OpType(op) for op in entry["ops"]},
                area=entry["area"],
                latency=entry["latency"],
                power=entry["power"],
            )
            for entry in data["modules"]
        ]
        return FULibrary(modules, name=data.get("name", "library"))
    except (KeyError, TypeError, ValueError) as exc:
        raise TaskError(f"malformed inline library spec: {exc}") from exc


# --------------------------------------------------------------------------- #
# Canonicalization for content addressing
# --------------------------------------------------------------------------- #
def _canonical_graph(data: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a CDFG dict for hashing without materializing a CDFG.

    Produces exactly what ``to_dict(from_dict(data))`` would, but in pure
    dictionary form (building a graph only to re-serialize it would
    dominate the cost of a cache lookup): operation types collapse to the
    canonical mnemonic, optional fields get their defaults, duplicate
    edges merge into one entry with summed multiplicity, and operations /
    edges are sorted so insertion order never changes the hash.
    """
    try:
        operations = [
            {
                "name": entry["name"],
                "type": OpType.from_mnemonic(entry["type"]).value,
                "label": entry.get("label", ""),
                "attrs": dict(entry.get("attrs") or {}),
            }
            for entry in data["operations"]
        ]
        multiplicities: Dict[Any, int] = {}
        for entry in data["edges"]:
            pair = (entry["src"], entry["dst"])
            multiplicities[pair] = multiplicities.get(pair, 0) + int(
                entry.get("multiplicity", 1)
            )
        edges = [
            {"src": src, "dst": dst, "multiplicity": multiplicity}
            for (src, dst), multiplicity in sorted(multiplicities.items())
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise TaskError(f"malformed inline CDFG spec: {exc}") from exc
    return {
        "name": data.get("name", ""),
        "operations": sorted(operations, key=lambda op: op["name"]),
        "edges": edges,
    }


#: The built CDFG, the canonical graph dict and that dict's
#: :func:`compact_json` text of each registered benchmark, keyed by its
#: frozen registry entry: building a benchmark for every task resolve, or
#: canonicalizing and encoding it again for every content address,
#: dominated both costs.  Re-registering a name with ``replace=True``
#: stores a new entry, which misses this memo, and the replaced entry's
#: graph goes with it.  Two threads missing at once build the same graph
#: twice, which is harmless.
_BENCHMARKS_BUILT: "weakref.WeakKeyDictionary[BenchmarkSpec, Tuple[CDFG, Dict[str, Any], str]]"
_BENCHMARKS_BUILT = weakref.WeakKeyDictionary()

def _built_benchmark(name: str) -> Tuple[CDFG, Dict[str, Any], str]:
    """The (CDFG, canonical graph, its compact JSON) of registered benchmark ``name``.

    Built once per registry entry; callers copy the CDFG or the dict
    before handing either out.
    """
    entry = get_benchmark(name)
    built = _BENCHMARKS_BUILT.get(entry)
    if built is None:
        cdfg = entry.build()
        graph = _canonical_graph(cdfg_to_dict(cdfg))
        built = (cdfg, graph, compact_json(graph))
        _BENCHMARKS_BUILT[entry] = built
    return built


def _benchmark_graph(name: str) -> Dict[str, Any]:
    """A fresh copy of the canonical graph of registered benchmark ``name``."""
    graph = _built_benchmark(name)[1]
    return {
        "name": graph["name"],
        "operations": [{**op, "attrs": dict(op["attrs"])} for op in graph["operations"]],
        "edges": [dict(edge) for edge in graph["edges"]],
    }


#: Canonical dict of each registered library with the factory it was built
#: from: the entry is reused only while that factory is still the one
#: registered under the name, so ``LIBRARIES.register(..., replace=True)``
#: re-addresses the name's tasks.  Building a library only to serialize it
#: was a quarter of a named task's content-address cost.
_LIBRARY_DICTS: Dict[str, Tuple[Callable[[], FULibrary], Dict[str, Any]]] = {}


def _registered_library(name: str) -> Dict[str, Any]:
    """A fresh copy of the canonical dict of registered library ``name``."""
    factory = LIBRARIES.get(name)
    memo = _LIBRARY_DICTS.get(name)
    if memo is None or memo[0] is not factory:
        memo = (factory, _canonical_library(library_to_dict(factory())))
        _LIBRARY_DICTS[name] = memo
    library = memo[1]
    return {
        "name": library["name"],
        "modules": [
            {**module, "ops": list(module["ops"])} for module in library["modules"]
        ],
    }


#: ``_canonical_options({})``, resolved on first use.
_DEFAULT_OPTIONS: Optional[Dict[str, Any]] = None


def _canonical_options(overrides: Dict[str, Any]) -> Dict[str, Any]:
    """Resolve option overrides against the EngineOptions defaults.

    Hashing the fully resolved option set makes ``options={}`` and an
    explicitly spelled-out ``EngineOptions()`` (or a partial override
    that happens to equal a default) share one content address — and
    rejects unknown option keys at hash time with the same error the
    pipeline would raise at run time.
    """
    global _DEFAULT_OPTIONS
    from ..synthesis.engine import EngineOptions  # local import to avoid a cycle

    if not overrides:
        if _DEFAULT_OPTIONS is None:
            _DEFAULT_OPTIONS = dataclasses.asdict(EngineOptions())
        return dict(_DEFAULT_OPTIONS)  # the defaults are scalars: a fresh copy
    valid = {f.name for f in dataclasses.fields(EngineOptions)}
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise TaskError(
            f"unknown engine option(s) {unknown}; valid options: {sorted(valid)}"
        )
    return dataclasses.asdict(EngineOptions(**overrides))


def _canonical_library(data: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a library dict for hashing (sorted modules, float metrics)."""
    try:
        modules = [
            {
                "name": entry["name"],
                "ops": sorted(OpType(op).value for op in entry["ops"]),
                "area": float(entry["area"]),
                "latency": int(entry["latency"]),
                "power": float(entry["power"]),
            }
            for entry in data["modules"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise TaskError(f"malformed inline library spec: {exc}") from exc
    return {
        "name": data.get("name", "library"),
        "modules": sorted(modules, key=lambda module: module["name"]),
    }


# --------------------------------------------------------------------------- #
# The task spec
# --------------------------------------------------------------------------- #
_TASK_FIELDS = (
    "graph",
    "latency",
    "power_budget",
    "register_budget",
    "library",
    "scheduler",
    "binder",
    "selector",
    "options",
    "verify",
    "label",
)


@dataclass
class SynthesisTask:
    """A declarative, JSON-serializable spec of one synthesis run.

    Attributes:
        graph: Registered benchmark name (e.g. ``"hal"``) or an inline
            CDFG dictionary in :func:`repro.ir.serialize.to_dict` format.
        latency: Latency bound ``T`` in cycles.  ``None`` means "whatever
            the schedule takes" — only schedulers that do not need a bound
            (``asap``, ``pasap``) accept that.
        power_budget: Per-cycle power budget ``P``, positive and finite;
            ``None`` = unbounded.
        register_budget: Per-cycle register (live-value) budget ``R``;
            ``None`` = unbounded.  Only schedulers that can *guarantee*
            the budget accept it (currently ``ilp``); the pipeline
            rejects the combination otherwise instead of silently
            ignoring the constraint.
        library: Registered library name (``"table1"``, ``"single"``) or
            an inline :func:`library_to_dict` dictionary.
        scheduler: Scheduler strategy name (see ``SCHEDULERS.names()``).
            The default ``"engine"`` is the paper's combined
            scheduling/allocation/binding algorithm.
        binder: Binder strategy name used when the scheduler does not bind
            (every scheduler except ``engine``).
        selector: Module-selection policy name feeding the scheduler.
        options: Plain-dict overrides for
            :class:`repro.synthesis.engine.EngineOptions` fields.  Tasks
            with ``scheduler="portfolio"`` may additionally carry the
            reserved ``portfolio_strategies`` / ``portfolio_deadline_s``
            keys configuring the race (see
            :class:`repro.portfolio.PortfolioConfig`); the remaining
            options are inherited by every contender.
        verify: Re-check precedence/latency/power/conflicts on the result
            and raise on violation.
        label: Optional free-form label echoed in reports.
    """

    graph: Union[str, Dict[str, Any]]
    latency: Optional[int] = None
    power_budget: Optional[float] = None
    register_budget: Optional[int] = None
    library: Union[str, Dict[str, Any]] = "table1"
    scheduler: str = "engine"
    binder: str = "greedy"
    selector: str = "min_power"
    options: Dict[str, Any] = field(default_factory=dict)
    verify: bool = True
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.graph, (str, dict)):
            raise TaskError(
                "task graph must be a benchmark name or an inline CDFG dict, "
                f"got {type(self.graph).__name__}"
            )
        if not isinstance(self.library, (str, dict)):
            raise TaskError(
                "task library must be a registered name or an inline dict, "
                f"got {type(self.library).__name__}"
            )
        if self.latency is not None:
            try:
                self.latency = int(self.latency)
            except (TypeError, ValueError):
                raise TaskError(f"latency bound must be an integer, got {self.latency!r}") from None
            if self.latency <= 0:
                raise TaskError(f"latency bound must be positive, got {self.latency}")
        if self.power_budget is not None:
            try:
                self.power_budget = float(self.power_budget)
            except (TypeError, ValueError):
                raise TaskError(f"power budget must be a number, got {self.power_budget!r}") from None
            if not math.isfinite(self.power_budget):
                raise TaskError(
                    f"power budget must be finite (null for none), got {self.power_budget}"
                )
            if self.power_budget <= 0:
                raise TaskError(f"power budget must be positive, got {self.power_budget}")
        if self.register_budget is not None:
            try:
                self.register_budget = int(self.register_budget)
            except (TypeError, ValueError):
                raise TaskError(
                    f"register budget must be an integer, got {self.register_budget!r}"
                ) from None
            if self.register_budget <= 0:
                raise TaskError(
                    f"register budget must be positive, got {self.register_budget}"
                )
        for field_name in ("scheduler", "binder", "selector"):
            if not isinstance(getattr(self, field_name), str):
                raise TaskError(f"task {field_name} must be a strategy name (string)")
        if not isinstance(self.options, dict):
            raise TaskError("task options must be a plain dict of engine options")

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def of(
        cls,
        graph: Union[str, Dict[str, Any], CDFG],
        *,
        library: Union[str, Dict[str, Any], FULibrary] = "table1",
        latency: Optional[int] = None,
        power_budget: Optional[float] = None,
        register_budget: Optional[int] = None,
        scheduler: str = "engine",
        binder: str = "greedy",
        selector: str = "min_power",
        options: Any = None,
        verify: bool = True,
        label: Optional[str] = None,
    ) -> "SynthesisTask":
        """Build a task from live objects, inlining them as serializable data.

        Accepts a :class:`~repro.ir.cdfg.CDFG` for ``graph``, a
        :class:`~repro.library.library.FULibrary` for ``library`` and an
        ``EngineOptions`` instance (or any dataclass / dict) for
        ``options``; everything is converted to plain dictionaries so the
        resulting task still round-trips through JSON.
        """
        if isinstance(graph, CDFG):
            graph = cdfg_to_dict(graph)
        if isinstance(library, FULibrary):
            library = library_to_dict(library)
        if options is None:
            options = {}
        elif dataclasses.is_dataclass(options) and not isinstance(options, type):
            options = dataclasses.asdict(options)
        elif not isinstance(options, dict):
            raise TaskError(
                "options must be an EngineOptions instance or a plain dict, "
                f"got {type(options).__name__}"
            )
        return cls(
            graph=graph,
            latency=latency,
            power_budget=power_budget,
            register_budget=register_budget,
            library=library,
            scheduler=scheduler,
            binder=binder,
            selector=selector,
            options=dict(options),
            verify=verify,
            label=label,
        )

    @classmethod
    def naive(
        cls,
        graph: Union[str, Dict[str, Any], CDFG],
        *,
        library: Union[str, Dict[str, Any], FULibrary] = "table1",
        latency: Optional[int] = None,
        label: Optional[str] = None,
    ) -> "SynthesisTask":
        """The unconstrained 'undesired' baseline of the paper's Figure 1.

        ASAP schedule, cheapest module per operation, one FU instance per
        operation, no verification — maximal area and an unconstrained,
        spiky power profile.
        """
        return cls.of(
            graph,
            library=library,
            latency=latency,
            scheduler="asap",
            binder="naive",
            selector="min_area",
            verify=False,
            label=label,
        )

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def resolve_graph(self) -> CDFG:
        """Materialize the CDFG (benchmark lookup or inline deserialization).

        A registered benchmark is built once per registry entry and
        handed out as a copy the caller may mutate.
        """
        if isinstance(self.graph, str):
            return _built_benchmark(self.graph)[0].copy()
        return cdfg_from_dict(self.graph)

    def resolve_library(self) -> FULibrary:
        """Materialize the library (registry lookup or inline deserialization)."""
        if isinstance(self.library, str):
            return LIBRARIES.get(self.library)()
        return library_from_dict(self.library)

    @property
    def graph_name(self) -> str:
        """Display name of the graph without materializing it."""
        if isinstance(self.graph, str):
            return self.graph
        return str(self.graph.get("name", "<inline>"))

    def describe(self) -> str:
        parts = [f"graph={self.graph_name}", f"scheduler={self.scheduler}"]
        if self.latency is not None:
            parts.append(f"T={self.latency}")
        parts.append(f"P={self.power_budget:g}" if self.power_budget is not None else "P=inf")
        if self.register_budget is not None:
            parts.append(f"R={self.register_budget}")
        if self.label:
            parts.append(f"label={self.label!r}")
        return "SynthesisTask(" + ", ".join(parts) + ")"

    # ------------------------------------------------------------------ #
    # Content addressing
    # ------------------------------------------------------------------ #
    def canonical_spec(self) -> Dict[str, Any]:
        """A semantically canonical form of this task for content addressing.

        Two tasks that describe the same synthesis run hash identically
        even when they are *spelled* differently: a registered benchmark
        name and the equivalent inline CDFG dictionary resolve to the same
        canonical graph, a registered library name and its inline module
        table resolve to the same canonical library, and operation / edge /
        module ordering is normalized.  The free-form ``label`` is
        deliberately excluded — it does not affect the result.

        A registered benchmark's canonical graph and a registered
        library's canonical module table are built once per process and
        memoized per registry entry, so re-registering the name with
        ``replace=True`` re-addresses its tasks.  Every call returns a
        fresh copy that the caller may mutate.
        """
        if isinstance(self.graph, str):
            return self._spec_around(_benchmark_graph(self.graph))
        return self._spec_around(_canonical_graph(self.graph))

    def _spec_around(self, graph: Any) -> Dict[str, Any]:
        """The canonical spec of this task with ``graph`` as its graph."""
        if isinstance(self.library, str):
            library = _registered_library(self.library)
        else:
            library = _canonical_library(self.library)
        portfolio = None
        options = self.options
        if self.scheduler == PORTFOLIO_SCHEDULER:
            # The race's own config (strategy subset, deadline) is part of
            # what the task *means*, so it joins the content address as an
            # extra spec entry; the remaining options are the engine
            # overrides every contender inherits.  Non-portfolio specs are
            # byte-identical to before — their keys never move.
            from ..portfolio.config import PortfolioConfig  # avoid an import cycle

            config, options = PortfolioConfig.from_task_options(self.options)
            portfolio = config.canonical(default_binder=self.binder)
        spec = {
            "version": CACHE_KEY_VERSION,
            "graph": graph,
            "library": library,
            "latency": self.latency,
            "power_budget": self.power_budget,
            "register_budget": self.register_budget,
            "scheduler": self.scheduler,
            "binder": self.binder,
            "selector": self.selector,
            "options": _canonical_options(options),
            "verify": self.verify,
        }
        if portfolio is not None:
            spec["portfolio"] = portfolio
        return spec

    def cache_key(self) -> str:
        """SHA-256 of the canonical spec: the task's content address.

        This is what the on-disk :class:`repro.explore.ResultCache` files
        results under, so identical (graph, library, T, P, strategy,
        options) points share one entry across sweeps, CLI invocations and
        worker processes.

        A registered benchmark's canonical graph text is encoded once per
        registry entry and spliced into the spec's encoding, which is
        byte-identical to encoding :meth:`canonical_spec`.

        The key is memoized on first use — treat a task as immutable once
        it has been hashed or executed (they are plain data; build a new
        one instead of mutating).
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            if isinstance(self.graph, str):
                graph_text = _built_benchmark(self.graph)[2]
                spec = self._spec_around(SPLICE_TOKEN)
                text = splice_json(spec, 1, graph_text, self.canonical_spec)
            else:
                text = compact_json(self.canonical_spec())
            key = hashlib.sha256(text.encode("utf-8")).hexdigest()
            self.__dict__["_cache_key"] = key
        return key

    def to_compact_json(self) -> str:
        """:func:`compact_json` of :meth:`to_dict`, encoded once.

        Memoized like :meth:`cache_key`: the serving layer splices it into
        every log line and status of each job that shares this task.
        """
        text = self.__dict__.get("_task_json")
        if text is None:
            text = self.__dict__["_task_json"] = compact_json(self.to_dict())
        return text

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe); inverse of :meth:`from_dict`."""
        return {
            "graph": self.graph,
            "latency": self.latency,
            "power_budget": self.power_budget,
            "register_budget": self.register_budget,
            "library": self.library,
            "scheduler": self.scheduler,
            "binder": self.binder,
            "selector": self.selector,
            "options": dict(self.options),
            "verify": self.verify,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SynthesisTask":
        """Build a task from a plain dict, rejecting unknown keys.

        Raises:
            TaskError: on unknown keys or malformed values, naming the
                offending key so batch-file mistakes are easy to find.
        """
        if not isinstance(data, dict):
            raise TaskError(f"task spec must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - set(_TASK_FIELDS))
        if unknown:
            raise TaskError(
                f"unknown task field(s) {unknown}; valid fields: {list(_TASK_FIELDS)}"
            )
        if "graph" not in data:
            raise TaskError("task spec is missing the required 'graph' field")
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SynthesisTask":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------ #
    # Execution sugar
    # ------------------------------------------------------------------ #
    def run(self):
        """Run this task through the default pipeline; return the result.

        Raises the usual :class:`~repro.synthesis.result.SynthesisError`
        subclasses on infeasible constraints.  For a non-raising record
        (and for parallel execution) use :func:`repro.api.batch.run_task`
        / :func:`repro.api.batch.run_batch`.
        """
        from .pipeline import Pipeline  # local import to avoid a cycle

        return Pipeline.default().run(self)


def tasks_from_json(text: str) -> List[SynthesisTask]:
    """Parse a batch file: a JSON list of task specs or ``{"tasks": [...]}``.

    ``{"sweeps": [...]}`` entries are expanded through
    :class:`repro.api.batch.Sweep`.
    """
    return tasks_from_payload(json.loads(text))


def tasks_from_payload(payload: Any) -> List[SynthesisTask]:
    """:func:`tasks_from_json` on an already parsed batch file."""
    from .batch import Sweep  # local import to avoid a cycle

    specs: List[Dict[str, Any]] = []
    sweeps: List[Dict[str, Any]] = []
    if isinstance(payload, list):
        specs = payload
    elif isinstance(payload, dict):
        specs = payload.get("tasks", [])
        sweeps = payload.get("sweeps", [])
        unknown = sorted(set(payload) - {"tasks", "sweeps"})
        if unknown:
            raise TaskError(f"unknown batch-file key(s) {unknown}; use 'tasks'/'sweeps'")
    else:
        raise TaskError("batch file must be a JSON list of tasks or an object")
    tasks = [SynthesisTask.from_dict(spec) for spec in specs]
    for sweep_spec in sweeps:
        tasks.extend(Sweep.from_dict(sweep_spec).tasks())
    if not tasks:
        raise TaskError("batch file contains no tasks")
    return tasks
