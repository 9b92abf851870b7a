"""repro — power-constrained high-level synthesis of battery-powered systems.

A from-scratch reproduction of Nielsen & Madsen, *"Power Constrained
High-Level Synthesis of Battery Powered Digital Systems"* (DATE 2003).

The package provides:

* :mod:`repro.ir` — the CDFG intermediate representation,
* :mod:`repro.library` — the functional-unit library (the paper's Table 1),
* :mod:`repro.scheduling` — classical schedulers plus the paper's
  power-constrained pasap/palap,
* :mod:`repro.binding` — compatibility graphs, clique partitioning,
  register allocation and interconnect estimation,
* :mod:`repro.synthesis` — the combined power-constrained synthesis
  engine and design-space exploration,
* :mod:`repro.power` — power profiles, spike analysis and a battery model,
* :mod:`repro.datapath` — the synthesized RTL datapath and its area model,
* :mod:`repro.suite` — the hal/cosine/elliptic benchmark CDFGs and more,
* :mod:`repro.reporting` — the experiment drivers reproducing the paper's
  Table 1, Figure 1 and Figure 2.

* :mod:`repro.api` — the unified ``SynthesisTask`` / ``Pipeline`` /
  ``run_batch`` entry points tying everything together, with string-keyed
  strategy registries in :mod:`repro.registries`,
* :mod:`repro.explore` — the exploration subsystem: a content-addressed
  on-disk result cache and the adaptive power/area frontier refiner,
* :mod:`repro.verify` — the verification subsystem: from-scratch
  certificate checking of any result, differential cross-checking of
  every registered strategy pair and the seeded ``repro fuzz`` harness,
* :mod:`repro.serve` — the serving layer: a dependency-free HTTP
  synthesis service (persistent job queue, worker pool, shared result
  cache, certified results only) plus the blocking ``Client`` that
  ``repro submit`` uses; its names are loaded on first use, so a plain
  ``import repro`` never loads the HTTP stack,
* :mod:`repro.lp` — a zero-dependency exact LP/ILP core (rational
  simplex + branch-and-bound) and the time-indexed ``ilp`` scheduling
  strategy: a second exact oracle without the exhaustive search's size
  cap, and the only scheduler honouring a task's ``register_budget``,
* :mod:`repro.portfolio` — the ``portfolio`` racing meta-strategy: fan
  one task across a configurable strategy subset, return the
  canonically-first certified result (or the best-area one under a
  deadline) and cancel the losers.

Quickstart::

    from repro import SynthesisTask, run_task

    record = run_task(SynthesisTask(graph="hal", latency=17, power_budget=12.0))
    print(record.result.describe())

or, batched across cores::

    from repro import Sweep

    records = Sweep("hal", 17, [8, 10, 12, 15, 20]).run(jobs=4)
"""

from .ir import CDFG, CDFGBuilder, Operation, OpType
from .library import FULibrary, FUModule, default_library
from .scheduling import (
    PowerConstraint,
    Schedule,
    SynthesisConstraints,
    TimeConstraint,
    asap_schedule_with_library,
    pasap_schedule_with_library,
)
from .synthesis import (
    EngineOptions,
    PowerConstrainedSynthesizer,
    SynthesisResult,
    synthesize,
)
from .power import BatteryParameters, PowerProfile, estimate_lifetime
from .suite import (
    ar_cdfg,
    build_benchmark,
    cosine_cdfg,
    elliptic_cdfg,
    fir_cdfg,
    hal_cdfg,
    register_benchmark,
)
from .registries import (
    BINDERS,
    LIBRARIES,
    SCHEDULERS,
    SELECTORS,
    StrategyRegistry,
    UnknownStrategyError,
)
from .api import (
    BatchResults,
    BatchSummary,
    Pipeline,
    PipelineContext,
    Sweep,
    SynthesisTask,
    TaskResult,
    run_batch,
    run_task,
)
from .explore import ResultCache, adaptive_power_sweep, iter_journal
from .store import (
    Claim,
    ColumnarStore,
    LegacyStore,
    ResultStore,
    StoreQuery,
    StoredRow,
    migrate_store,
    open_store,
    try_acquire,
)
from .portfolio import (
    PortfolioConfig,
    PortfolioOutcome,
    PortfolioRunner,
    portfolio_task,
    run_portfolio,
)
from .verify import (
    CertificateError,
    CertificateReport,
    FuzzConfig,
    Violation,
    check_certificate,
    cross_check,
    run_fuzz,
)
from .lp import (
    LinearProgram,
    ilp_schedule,
    minimum_registers,
    schedule_register_usage,
    solve_lp,
    solve_milp,
)

__version__ = "1.21.0"

#: Names resolved from :mod:`repro.serve` on first access (PEP 562).
#: The serving layer registers no strategy, so deferring it leaves every
#: registry as it is.
_SERVE_EXPORTS = ("Client", "QueueFullError", "SynthesisService", "WorkerCrash", "start_server")


def __getattr__(name: str):
    if name in _SERVE_EXPORTS:
        from . import serve

        value = getattr(serve, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

__all__ = [
    "CDFG",
    "CDFGBuilder",
    "Operation",
    "OpType",
    "FULibrary",
    "FUModule",
    "default_library",
    "PowerConstraint",
    "Schedule",
    "SynthesisConstraints",
    "TimeConstraint",
    "asap_schedule_with_library",
    "pasap_schedule_with_library",
    "EngineOptions",
    "PowerConstrainedSynthesizer",
    "SynthesisResult",
    "synthesize",
    "BatteryParameters",
    "PowerProfile",
    "estimate_lifetime",
    "ar_cdfg",
    "build_benchmark",
    "cosine_cdfg",
    "elliptic_cdfg",
    "fir_cdfg",
    "hal_cdfg",
    "register_benchmark",
    "StrategyRegistry",
    "UnknownStrategyError",
    "SCHEDULERS",
    "BINDERS",
    "SELECTORS",
    "LIBRARIES",
    "SynthesisTask",
    "Pipeline",
    "PipelineContext",
    "TaskResult",
    "BatchResults",
    "BatchSummary",
    "Sweep",
    "run_task",
    "run_batch",
    "ResultCache",
    "adaptive_power_sweep",
    "iter_journal",
    "ResultStore",
    "ColumnarStore",
    "LegacyStore",
    "StoreQuery",
    "StoredRow",
    "open_store",
    "migrate_store",
    "Claim",
    "try_acquire",
    "PortfolioConfig",
    "PortfolioOutcome",
    "PortfolioRunner",
    "portfolio_task",
    "run_portfolio",
    "CertificateError",
    "CertificateReport",
    "Violation",
    "check_certificate",
    "cross_check",
    "run_fuzz",
    "FuzzConfig",
    "SynthesisService",
    "start_server",
    "Client",
    "QueueFullError",
    "WorkerCrash",
    "LinearProgram",
    "solve_lp",
    "solve_milp",
    "ilp_schedule",
    "minimum_registers",
    "schedule_register_usage",
    "__version__",
]
