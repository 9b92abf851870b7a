"""Command-line interface.

``repro <command>`` (or ``python -m repro <command>``) exposes the main
flows without writing any Python:

* ``table1`` — print the functional-unit library (the paper's Table 1),
* ``benchmarks`` — list the registered benchmark CDFGs,
* ``synthesize`` — run synthesis on a benchmark (or a CDFG JSON file)
  with any registered scheduler/binder and print the result,
* ``sweep`` — the Figure-2 power/area sweep for one benchmark and latency,
* ``profile`` — print the per-cycle power profile of the unconstrained vs.
  the power-constrained design (Figure 1 for any benchmark),
* ``batch`` — run a JSON file of :class:`~repro.api.task.SynthesisTask`
  specs through the parallel batch executor and print a result table,
* ``fuzz`` — differential fuzzing: seeded tasks from every scenario
  family run through every scheduler × binder pair, every feasible
  result certified from scratch (see :mod:`repro.verify`),
* ``store`` — inspect and maintain a result-store directory: ``stats``,
  ``compact``, ``migrate`` (legacy → columnar, verified bit-identical)
  and ``query`` (columnar range scans; see :mod:`repro.store`),
* ``serve`` — run the long-lived HTTP synthesis service (persistent job
  queue + worker pool + shared result cache; see :mod:`repro.serve`),
* ``submit`` — send a batch file to a running server and (optionally)
  wait for the certified results.

Every command builds a ``SynthesisTask`` and routes it through the shared
:class:`~repro.api.pipeline.Pipeline`, so the CLI, the library API and
the experiment drivers are the same code path.  Commands return a process
exit code of 0 on success and 2 on infeasible constraint sets so they can
be scripted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from .api.batch import Sweep, TaskResult, run_batch, run_task
from .api.task import SynthesisTask, TaskError, tasks_from_json
from .explore import ResultCache, adaptive_power_sweep
from .ir import load as load_cdfg
from .ir.serialize import to_dict as cdfg_to_dict
from .library import default_library
from .power.profile import profile_from_schedule
from .registries import BINDERS, SCHEDULERS, UnknownStrategyError
from .reporting.experiments import figure1_experiment, table1_report
from .reporting.series import Series, ascii_plot
from .reporting.table import render_table
from .store import StoreError
from .suite.generators import family_names
from .suite.registry import benchmark_names, build_benchmark, get_benchmark
from .synthesis.explore import (
    default_power_grid,
    minimum_feasible_power,
    power_area_sweep,
)
from .synthesis.result import SynthesisError
from .verify import FuzzConfig, check_certificate, run_fuzz

#: Exit code used for infeasible constraint combinations.
EXIT_INFEASIBLE = 2

#: Exit code used when certificate / differential violations are found.
EXIT_VIOLATIONS = 3


def _graph_spec(args: argparse.Namespace):
    """Resolve the --benchmark / --cdfg options into a task graph spec."""
    if args.cdfg is not None:
        return cdfg_to_dict(load_cdfg(Path(args.cdfg)))
    return args.benchmark


def _open_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    """Build the result cache requested by ``--cache-dir`` / ``--resume``.

    ``--cache-dir`` alone records every computed point (write-only), so a
    later run *can* resume; adding ``--resume`` also consults the cache,
    turning previously computed points into instant hits.  ``--resume``
    without a cache directory is a usage error.
    """
    if getattr(args, "resume", False) and args.cache_dir is None:
        raise SystemExit("--resume requires --cache-dir (nowhere to resume from)")
    if args.cache_dir is None:
        return None
    return ResultCache(args.cache_dir, read=bool(getattr(args, "resume", False)))


def _print_cache_summary(cache: Optional[ResultCache]) -> None:
    if cache is None:
        return
    stats = cache.stats
    # len(cache) counts the on-disk store, which parallel workers write
    # directly — the parent's own `writes` counter would undercount.
    print(
        f"cache: {stats.hits} hit(s), {stats.misses} miss(es), "
        f"{stats.writes} new record(s) in this process; "
        f"{len(cache)} on disk in {cache.root}"
    )


def _cmd_table1(_: argparse.Namespace) -> int:
    print(table1_report())
    return 0


def _cmd_benchmarks(_: argparse.Namespace) -> int:
    rows = []
    for name in benchmark_names():
        spec = get_benchmark(name)
        graph = spec.build()
        rows.append(
            [
                name,
                len(graph),
                graph.num_edges(),
                ", ".join(str(t) for t in spec.latencies),
                spec.in_paper,
            ]
        )
    print(
        render_table(
            ["benchmark", "operations", "edges", "paper latencies", "in paper"],
            rows,
            title="Registered benchmark CDFGs",
        )
    )
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    options = {}
    if args.scheduler == "portfolio":
        if args.contenders:
            options["portfolio_strategies"] = list(args.contenders)
        if args.deadline is not None:
            options["portfolio_deadline_s"] = args.deadline
    elif args.contenders or args.deadline is not None:
        raise SystemExit("--contenders/--deadline require --scheduler portfolio")
    task = SynthesisTask(
        graph=_graph_spec(args),
        latency=args.latency,
        power_budget=args.power,
        register_budget=args.registers,
        scheduler=args.scheduler,
        binder=args.binder,
        options=options,
    )
    cache = _open_cache(args)
    if args.scheduler == "portfolio":
        return _synthesize_portfolio(args, task, cache)
    record = run_task(task, cache=cache)
    if not record.feasible:
        print(f"infeasible: {record.error}", file=sys.stderr)
        return EXIT_INFEASIBLE
    result = record.result
    if result is None:
        # a --resume cache hit carries scalar metrics only
        print(
            f"{task.scheduler} (cached): area={record.area:g}  "
            f"peak={record.peak_power:g}  latency={record.latency}"
        )
        if args.schedule or args.datapath or args.verilog is not None or args.verify:
            raise SystemExit(
                "--schedule/--datapath/--verilog/--verify need a full "
                "synthesis result, but this point was answered from the "
                "cache (scalar metrics only); re-run without --resume"
            )
        return 0
    print(result.describe())
    if args.verify:
        report = check_certificate(result)
        print(report.describe())
        if not report.ok:
            return EXIT_VIOLATIONS
    if args.schedule:
        print()
        print(result.schedule.describe())
    if args.datapath:
        print()
        print(result.datapath.describe())
    if args.verilog is not None:
        Path(args.verilog).write_text(result.datapath.to_structural_verilog())
        print(f"\nwrote structural Verilog skeleton to {args.verilog}")
    return 0


def _synthesize_portfolio(
    args: argparse.Namespace,
    task: SynthesisTask,
    cache: Optional[ResultCache] = None,
) -> int:
    """Race a portfolio task and print who won (the ``--explain`` view).

    Portfolio records carry scalar metrics only (the full datapath lives
    with the winning concrete strategy), so the result-object options of
    the plain synthesize path do not apply here.  With ``--cache-dir``
    the race files its results for later runs; adding ``--resume`` also
    pre-answers warm contenders from the cache.
    """
    from .portfolio import run_portfolio

    if args.schedule or args.datapath or args.verilog is not None or args.verify:
        raise SystemExit(
            "--schedule/--datapath/--verilog/--verify need a full synthesis "
            "result; a portfolio race returns scalar metrics — re-run the "
            "winning strategy directly for those views"
        )
    outcome = run_portfolio(task, cache=cache)
    record = outcome.record
    if cache is not None and outcome.cacheable:
        # file the portfolio-level verdict too (run_task does the same),
        # so a --resume re-race answers without launching anything; put
        # files nothing the cache already holds
        cache.put(task, record)
    if not record.feasible:
        print(f"infeasible: {record.error}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(
        f"portfolio winner: {outcome.winner}  "
        f"area={record.area:g}  peak={record.peak_power:g}  "
        f"latency={record.latency}  ({outcome.elapsed:.2f}s)"
    )
    rows = [
        [
            entry["label"],
            entry["status"],
            f"{entry['area']:g}" if entry.get("area") is not None else "-",
            f"{entry['elapsed']:.2f}" if entry.get("elapsed") is not None else "-",
            entry.get("error_type") or "-",
            "yes" if entry.get("from_cache") else "no",
        ]
        for entry in outcome.contenders
    ]
    print(
        render_table(
            ["contender", "status", "area", "sec", "error", "cached"],
            rows,
            title="Race contenders (canonical order)",
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    library = default_library()
    if args.cdfg is not None:
        cdfg = load_cdfg(Path(args.cdfg))
    else:
        cdfg = build_benchmark(args.benchmark)
    cache = _open_cache(args)
    if args.adaptive and (args.steps is not None or args.jobs > 1):
        raise SystemExit(
            "--adaptive probes budgets by bisection: it is grid-free and "
            "sequential, so --steps/--jobs do not apply"
        )
    if not args.adaptive and args.resolution is not None:
        raise SystemExit("--resolution only applies to --adaptive sweeps")
    try:
        if args.adaptive:
            sweep = adaptive_power_sweep(
                cdfg,
                library,
                args.latency,
                p_max=args.cap,
                resolution=args.resolution if args.resolution is not None else 1.0,
                cache=cache,
                cumulative_best=not args.raw,
            )
        else:
            p_min = minimum_feasible_power(cdfg, library, args.latency, cache=cache)
            steps = args.steps if args.steps is not None else 8
            budgets = default_power_grid(p_min, args.cap, steps)
            sweep = power_area_sweep(
                cdfg,
                library,
                args.latency,
                budgets,
                cumulative_best=not args.raw,
                jobs=args.jobs,
                cache=cache,
            )
    except SynthesisError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    rows = [
        [point.power_budget, point.feasible, point.area, point.peak_power]
        for point in sweep.points
    ]
    print(
        render_table(
            ["P budget", "feasible", "area", "peak power"],
            rows,
            title=f"Power/area sweep: {cdfg.name} (T={args.latency})",
        )
    )
    series = Series(f"{cdfg.name} (T={args.latency})")
    for point in sweep.feasible_points():
        series.add(point.power_budget, point.area)
    print()
    print(ascii_plot([series], x_label="power budget", y_label="area"))
    if args.adaptive:
        print(
            f"\nadaptive refinement: {sweep.probes} probe(s), "
            f"{sweep.synthesis_calls} synthesis run(s), "
            f"resolution {sweep.resolution:g}"
        )
    _print_cache_summary(cache)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.power is None:
        record = run_task(SynthesisTask.naive(_graph_spec(args)))
        print(profile_from_schedule(record.result.schedule).describe())
        return 0
    try:
        data = figure1_experiment(
            benchmark=args.benchmark, latency=args.latency, power_budget=args.power
        )
    except SynthesisError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(data.report)
    return 0


def _batch_rows(records: List[TaskResult]) -> List[List[object]]:
    rows: List[List[object]] = []
    for index, record in enumerate(records):
        task = record.task
        rows.append(
            [
                index,
                task.label or task.graph_name,
                task.scheduler,
                task.latency if task.latency is not None else "-",
                f"{task.power_budget:g}" if task.power_budget is not None else "inf",
                "yes" if record.feasible else "no",
                f"{record.area:g}" if record.area is not None else "-",
                f"{record.peak_power:.2f}" if record.peak_power is not None else "-",
                record.latency if record.latency is not None else "-",
                f"{record.elapsed:.2f}",
            ]
        )
    return rows


def _cmd_batch(args: argparse.Namespace) -> int:
    try:
        tasks = tasks_from_json(Path(args.file).read_text())
    except (TaskError, ValueError, TypeError, OSError) as exc:
        # ValueError covers json.JSONDecodeError; TypeError catches
        # type-level spec mistakes (e.g. a scalar where a list belongs).
        print(f"bad batch file: {exc}", file=sys.stderr)
        return 1

    cache = _open_cache(args)
    try:
        records = run_batch(tasks, jobs=args.jobs, keep_results=False, cache=cache)
    except (TaskError, UnknownStrategyError) as exc:
        print(f"bad task: {exc}", file=sys.stderr)
        return 1
    summary = records.summary

    print(
        render_table(
            ["#", "task", "scheduler", "T", "P", "feasible", "area", "peak", "cycles", "sec"],
            _batch_rows(records),
            title=f"Batch results ({args.file})",
        )
    )
    print(
        f"\n{summary.feasible}/{summary.total} tasks feasible in "
        f"{summary.elapsed:.2f}s (jobs={args.jobs}); "
        f"{summary.cache_hits} cache hit(s), {summary.computed} computed"
    )
    _print_cache_summary(cache)
    for record in records:
        if not record.feasible:
            print(f"  task {record.task.describe()}: {record.error}")
    if args.output is not None:
        Path(args.output).write_text(
            json.dumps(
                {
                    "summary": summary.to_dict(),
                    "records": [record.to_dict() for record in records],
                },
                indent=2,
            )
        )
        print(f"wrote structured results to {args.output}")
    # A structural CertificateError is a bug (a produced result the
    # independent checker rejected), never sweep data — gate on it first.
    if summary.certificate_errors:
        print(
            f"{summary.certificate_errors} task(s) failed certificate "
            "verification (structural violations, not infeasibility)",
            file=sys.stderr,
        )
        return EXIT_VIOLATIONS
    # Partial infeasibility is normal sweep data; a batch where *nothing*
    # was feasible honours the scriptable infeasible exit code.
    return 0 if summary.feasible else EXIT_INFEASIBLE


def _cmd_fuzz(args: argparse.Namespace) -> int:
    config = FuzzConfig(
        families=tuple(args.families or ()),
        seeds=args.seeds,
        base_seed=args.base_seed,
        schedulers=tuple(args.schedulers or ()),
        binders=tuple(args.binders or ()),
        max_slack=args.max_slack,
        register_fraction=args.register_fraction,
        portfolio_fraction=args.portfolio_fraction,
    )
    cache = _open_cache(args)
    started = time.perf_counter()
    report = run_fuzz(config, cache=cache)
    elapsed = time.perf_counter() - started

    print(report.describe())
    print(f"\n{len(report.cases)} case(s) in {elapsed:.2f}s")
    _print_cache_summary(cache)
    if args.output is not None:
        payload = report.to_dict()
        payload["elapsed"] = elapsed
        Path(args.output).write_text(json.dumps(payload, indent=2))
        print(f"wrote structured fuzz report to {args.output}")
    return 0 if report.ok else EXIT_VIOLATIONS


def _parse_range(text: Optional[str], name: str):
    """Parse a ``repro store query`` range: ``X`` exact or ``LO:HI`` inclusive."""
    if text is None:
        return None
    if ":" not in text:
        try:
            return float(text)
        except ValueError:
            raise SystemExit(f"--{name} expects a number or LO:HI, got {text!r}")
    lo_text, _, hi_text = text.partition(":")
    try:
        lo = float(lo_text) if lo_text else None
        hi = float(hi_text) if hi_text else None
    except ValueError:
        raise SystemExit(f"--{name} expects a number or LO:HI, got {text!r}")
    return (lo, hi)


def _cmd_store_stats(args: argparse.Namespace) -> int:
    from .store import open_store

    stats = open_store(args.dir).store_stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"store: {stats['root']}  backend={stats['backend']}")
    print(f"  records: {stats['records']}   bytes: {stats['bytes']}")
    for shard in stats.get("shards", []):
        print(
            f"  shard {shard['prefix']}: gen={shard['generation']} "
            f"compacted={shard['compacted_rows']} tail={shard['tail_rows']} "
            f"segments={shard['segments']} bytes={shard['bytes']}"
        )
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    from .store import open_store

    store = open_store(args.dir)
    report = store.compact()
    if report.get("shards") is None:
        print(f"nothing to compact: {args.dir} is a {store.backend} store")
        return 0
    print(
        f"compacted {report['compacted']} record(s) across {report['shards']} "
        f"shard(s); {report['removed']} consumed segment(s) removed"
    )
    return 0


def _cmd_store_migrate(args: argparse.Namespace) -> int:
    from .store import ColumnarStore, migrate_store, open_store, verify_migration

    source = open_store(args.source)
    destination = ColumnarStore(args.destination)
    report = migrate_store(source, destination)
    print(
        f"migrated {report['records']} record(s) "
        f"(+{report['replayed']} replayed from the journal) "
        f"{report['source_backend']} -> {report['destination_backend']}"
    )
    if not args.no_verify:
        verified = verify_migration(source, destination)
        print(f"verified: {verified['records']} record(s) bit-identical")
    return 0


def _cmd_store_query(args: argparse.Namespace) -> int:
    from .store import StoreQuery, open_store

    store = open_store(args.dir)
    query = StoreQuery(
        family=args.family,
        scheduler=args.scheduler,
        binder=args.binder,
        selector=args.selector,
        key_prefix=args.key_prefix,
        feasible=(
            True if args.feasible else False if args.infeasible else None
        ),
        latency=_parse_range(args.latency, "latency"),
        power=_parse_range(args.power, "power"),
        register=_parse_range(args.register, "register"),
    )
    rows = []
    matched = 0
    for row in store.scan(query):
        matched += 1
        if args.limit is not None and matched > args.limit:
            continue  # keep counting, stop collecting
        rows.append(row)
    if args.json:
        shown = (row.to_dict() for row in rows)
        print(json.dumps({"total": matched, "rows": list(shown)}, indent=2))
        return 0
    table_rows = [
        [
            row.key[:12],
            row.family or "<inline>",
            row.scheduler,
            row.binder,
            row.latency if row.latency is not None else "-",
            f"{row.power_budget:g}" if row.power_budget is not None else "-",
            row.register_budget if row.register_budget is not None else "-",
            "yes" if row.feasible else "no",
            f"{row.area:.2f}" if row.area is not None else "-",
            f"{row.peak_power:.2f}" if row.peak_power is not None else "-",
        ]
        for row in rows
    ]
    print(
        render_table(
            ["key", "family", "scheduler", "binder", "T", "P", "R", "feasible", "area", "peak"],
            table_rows,
            title=f"{matched} matching record(s) in {args.dir} [{store.backend}]",
        )
    )
    if args.limit is not None and matched > args.limit:
        print(f"(showing {args.limit} of {matched}; raise --limit)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.http import SynthesisServer
    from .serve.service import SynthesisService

    cache = None if args.cache_dir is None else ResultCache(args.cache_dir)
    service = SynthesisService(
        args.state_dir,
        cache=cache,
        workers=args.workers,
        max_queue_depth=args.max_queue_depth,
    ).start()
    server = SynthesisServer((args.host, args.port), service, verbose=args.verbose)
    print(f"repro serve: listening on {server.url}")
    print(
        f"  workers={args.workers}  "
        f"state_dir={args.state_dir or '<memory>'}  "
        f"cache={service.cache.root}"
    )
    pending = service.queue.depth
    if pending:
        print(f"  resumed {pending} pending job(s) from the queue log")
    print("  POST /tasks · GET /jobs/<id> · GET /results/<key> · /healthz · /stats")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (finishing in-flight jobs; pending jobs stay queued)")
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=False)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve.client import Client, ClientError

    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        print(f"bad batch file: {exc}", file=sys.stderr)
        return 1
    try:
        tasks = tasks_from_json(text)
    except (TaskError, ValueError, TypeError) as exc:
        print(f"bad batch file: {exc}", file=sys.stderr)
        return 1

    try:
        with Client(args.url, timeout=args.timeout) as client:
            accepted = client.submit(
                tasks, priority=args.priority, deadline_s=args.deadline
            )
            print(f"submitted {len(accepted)} job(s) to {args.url}")
            for entry in accepted:
                print(f"  {entry['id']}  key={entry['key'][:16]}…")
            if not args.wait:
                return 0
            records = client.records_from_states(
                client.wait(accepted, timeout=args.timeout)
            )
    except ClientError as exc:
        print(f"server error: {exc}", file=sys.stderr)
        return 1
    print(
        render_table(
            ["#", "task", "scheduler", "T", "P", "feasible", "area", "peak", "cycles", "sec"],
            _batch_rows(records),
            title=f"Served results ({args.url})",
        )
    )
    from .api.batch import BatchSummary

    summary = BatchSummary.from_records(records)
    print(
        f"\n{summary.feasible}/{summary.total} tasks feasible; "
        f"{summary.cache_hits} cache hit(s), {summary.computed} computed"
    )
    for record in records:
        if not record.feasible:
            print(f"  task {record.task.describe()}: {record.error}")
    if summary.certificate_errors:
        print(
            f"{summary.certificate_errors} task(s) failed certificate "
            "verification (structural violations, not infeasibility)",
            file=sys.stderr,
        )
        return EXIT_VIOLATIONS
    return 0 if summary.feasible else EXIT_INFEASIBLE


def _grid_steps(text: str) -> int:
    """``--steps``: a power grid has both endpoints, so at least two budgets."""
    try:
        steps = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if steps < 2:
        raise argparse.ArgumentTypeError(f"a power grid needs at least 2 steps, got {steps}")
    return steps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Power-constrained high-level synthesis (DATE 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the functional-unit library").set_defaults(
        handler=_cmd_table1
    )
    sub.add_parser("benchmarks", help="list the registered benchmarks").set_defaults(
        handler=_cmd_benchmarks
    )

    def add_graph_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--benchmark", "-b", default="hal", choices=benchmark_names())
        p.add_argument("--cdfg", help="path to a CDFG JSON file (overrides --benchmark)")

    def add_cache_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir",
            default=None,
            help="record every computed point in this content-addressed cache "
            "directory (JSONL journal included) so a later --resume run "
            "skips them",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="also consult --cache-dir before synthesizing: previously "
            "computed points (from any sweep, batch or killed run) return "
            "instantly",
        )

    synth = sub.add_parser("synthesize", help="run synthesis with any registered strategy")
    add_graph_options(synth)
    synth.add_argument("--latency", "-T", type=int, required=True)
    synth.add_argument("--power", "-P", type=float, default=None)
    synth.add_argument(
        "--registers",
        "-R",
        type=int,
        default=None,
        help="register budget (needs a register-aware scheduler, e.g. 'ilp')",
    )
    synth.add_argument(
        "--scheduler",
        default="engine",
        choices=SCHEDULERS.names(),
        help="scheduler strategy (default: the paper's combined engine)",
    )
    synth.add_argument(
        "--binder",
        default="greedy",
        choices=BINDERS.names(),
        help="binder strategy for non-engine schedulers",
    )
    synth.add_argument(
        "--contenders",
        nargs="+",
        default=None,
        metavar="PAIR",
        help="portfolio mode: contender subset as 'scheduler' or "
        "'scheduler+binder' entries in canonical decision order "
        "(default: the built-in spread); requires --scheduler portfolio",
    )
    synth.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="portfolio mode: collect certified results for this many "
        "seconds and return the best-area one instead of the "
        "canonically-first; requires --scheduler portfolio",
    )
    synth.add_argument("--schedule", action="store_true", help="print the schedule")
    synth.add_argument("--datapath", action="store_true", help="print the datapath")
    synth.add_argument(
        "--verify",
        action="store_true",
        help="re-run the independent certificate checker on the result and "
        "print the full report (the pipeline already verifies by default, so "
        "violations normally surface as 'infeasible' / exit 2; this prints "
        "the positive certificate, and exits 3 should a violation ever slip "
        "past the pipeline gate)",
    )
    synth.add_argument("--verilog", help="write a structural Verilog skeleton to this path")
    add_cache_options(synth)
    synth.set_defaults(handler=_cmd_synthesize)

    sweep = sub.add_parser("sweep", help="power/area sweep (one Figure-2 curve)")
    add_graph_options(sweep)
    sweep.add_argument("--latency", "-T", type=int, required=True)
    sweep.add_argument("--cap", type=float, default=150.0)
    sweep.add_argument(
        "--steps",
        type=_grid_steps,
        default=None,
        help="fixed-grid mode: number of power budgets (default: 8); "
        "incompatible with --adaptive",
    )
    sweep.add_argument("--raw", action="store_true", help="disable the running-best convention")
    sweep.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="parallel workers (fixed-grid mode only)",
    )
    sweep.add_argument(
        "--adaptive",
        action="store_true",
        help="replace the fixed power grid with adaptive frontier refinement "
        "(bisect only where the area changes)",
    )
    sweep.add_argument(
        "--resolution",
        type=float,
        default=None,
        help="adaptive mode: maximum width of a frontier step (default: 1.0); "
        "requires --adaptive",
    )
    add_cache_options(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    profile = sub.add_parser("profile", help="per-cycle power profile (Figure 1)")
    add_graph_options(profile)
    profile.add_argument("--latency", "-T", type=int, default=17)
    profile.add_argument("--power", "-P", type=float, default=None)
    profile.set_defaults(handler=_cmd_profile)

    batch = sub.add_parser(
        "batch", help="run a JSON file of SynthesisTask specs, optionally in parallel"
    )
    batch.add_argument("file", help="JSON: a list of task specs or {'tasks': [...], 'sweeps': [...]}")
    batch.add_argument("--jobs", "-j", type=int, default=1, help="parallel workers")
    batch.add_argument("--output", "-o", help="also write structured JSON results here")
    add_cache_options(batch)
    batch.set_defaults(handler=_cmd_batch)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: scenario families × every strategy pair, "
        "with from-scratch certification of each feasible result",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=10, help="seeds per family (default: 10)"
    )
    fuzz.add_argument("--base-seed", type=int, default=0, help="first seed")
    fuzz.add_argument(
        "--families",
        nargs="+",
        choices=family_names(),
        default=None,
        help="generator families to fuzz (default: all)",
    )
    fuzz.add_argument(
        "--schedulers",
        nargs="+",
        choices=SCHEDULERS.names(),
        default=None,
        help="scheduler strategies to cross-check (default: all)",
    )
    fuzz.add_argument(
        "--binders",
        nargs="+",
        choices=BINDERS.names(),
        default=None,
        help="binder strategies to cross-check (default: all)",
    )
    fuzz.add_argument(
        "--max-slack",
        type=int,
        default=6,
        help="largest latency slack above the critical path (default: 6)",
    )
    fuzz.add_argument(
        "--register-fraction",
        type=float,
        default=0.25,
        help="share of cases carrying a register budget (default: 0.25)",
    )
    fuzz.add_argument(
        "--portfolio-fraction",
        type=float,
        default=0.15,
        help="share of cases that also race the portfolio meta-strategy "
        "and hold its verdict to the agreement invariant (default: 0.15)",
    )
    fuzz.add_argument("--output", "-o", help="also write a structured JSON report here")
    add_cache_options(fuzz)
    fuzz.set_defaults(handler=_cmd_fuzz)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP synthesis service (persistent queue + worker pool "
        "+ shared result cache)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers", "-j", type=int, default=2, help="synthesis workers"
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="bound on queued-but-unstarted jobs; a full queue answers "
        "429 + Retry-After instead of buffering without limit",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        help="directory for the persistent job-queue log (and the default "
        "cache location); omitting it keeps the queue in memory",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="shared result-cache directory (default: <state-dir>/cache, or "
        "a private temp dir without --state-dir)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.set_defaults(handler=_cmd_serve)

    store = sub.add_parser(
        "store",
        help="inspect and maintain a result-store directory "
        "(stats, compact, migrate, query)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_stats = store_sub.add_parser(
        "stats", help="backend, record count and per-shard inventory"
    )
    store_stats.add_argument("dir", help="cache / store directory")
    store_stats.add_argument("--json", action="store_true", help="machine-readable output")
    store_stats.set_defaults(handler=_cmd_store_stats)

    store_compact = store_sub.add_parser(
        "compact",
        help="merge a columnar store's append segments into sorted, "
        "indexed column files",
    )
    store_compact.add_argument("dir", help="cache / store directory")
    store_compact.set_defaults(handler=_cmd_store_compact)

    store_migrate = store_sub.add_parser(
        "migrate",
        help="convert a legacy cache: copy every record (and replay the "
        "journal) into a new columnar directory, then verify bit-identity",
    )
    store_migrate.add_argument("source", help="existing cache / store directory")
    store_migrate.add_argument("destination", help="fresh directory for the new store")
    store_migrate.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the record-by-record bit-identity check after copying",
    )
    store_migrate.set_defaults(handler=_cmd_store_migrate)

    store_query = store_sub.add_parser(
        "query",
        help="columnar range scan: filter stored records by family, "
        "strategy and the (T, P, R) constraint axes",
    )
    store_query.add_argument("dir", help="cache / store directory")
    store_query.add_argument("--family", help="scenario family / benchmark name")
    store_query.add_argument("--scheduler", choices=SCHEDULERS.names())
    store_query.add_argument("--binder", choices=BINDERS.names())
    store_query.add_argument("--selector", help="module-selection policy name")
    feasibility = store_query.add_mutually_exclusive_group()
    feasibility.add_argument("--feasible", action="store_true", help="feasible records only")
    feasibility.add_argument("--infeasible", action="store_true", help="infeasible records only")
    store_query.add_argument("--latency", "-T", help="latency bound: exact T or LO:HI")
    store_query.add_argument("--power", "-P", help="power budget: exact P or LO:HI")
    store_query.add_argument("--register", "-R", help="register budget: exact R or LO:HI")
    store_query.add_argument(
        "--key-prefix",
        help="content-address prefix (hex); shard-pruned, so a 1-char "
        "prefix opens roughly 1/16th of the shards",
    )
    store_query.add_argument(
        "--limit", type=int, default=40, help="rows to display (default: 40)"
    )
    store_query.add_argument("--json", action="store_true", help="machine-readable output")
    store_query.set_defaults(handler=_cmd_store_query)

    submit = sub.add_parser(
        "submit",
        help="send a JSON batch file to a running repro serve instance",
    )
    submit.add_argument(
        "file", help="JSON: a list of task specs or {'tasks': [...], 'sweeps': [...]}"
    )
    submit.add_argument(
        "--url",
        default="http://127.0.0.1:8642",
        help="server base URL (default: http://127.0.0.1:8642)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll until every job finishes and print the result table "
        "(otherwise just print the accepted job ids)",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="overall wait/request timeout in seconds (default: 300)",
    )
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="queue priority for this batch (higher runs first; default 0)",
    )
    submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="portfolio job option: stamp portfolio_deadline_s onto every "
        "submitted task before admission (tasks must all be portfolio "
        "tasks; the server answers 400 otherwise)",
    )
    submit.set_defaults(handler=_cmd_submit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except TaskError as exc:
        raise SystemExit(f"bad task: {exc}")
    except StoreError as exc:
        raise SystemExit(f"store error: {exc}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
