"""The repository benchmark: one command, three workloads, every answer checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload dse-sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` makes a separate traced run that breaks the same workload
down by layer.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
restate every metric with its unit and sample count.  Spans of a traced run
are written to ``.perfbench/spans-<workload>-s<seed>.jsonl``.

The program under test is the checkout's ``src/repro``; without it the
benchmark exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (every workload reports each one) and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a traced run; a layer a workload never reaches reads 0.
PER_LAYER = {
    "ir.from_dict_s": "s",
    "api.resolve_s": "s",
    "library.select_s": "s",
    "scheduling.schedule_s": "s",
    "synthesis.engine_s": "s",
    "lp.ilp_s": "s",
    "binding.bind_s": "s",
    "api.finalize_s": "s",
    "api.analyze_s": "s",
    "verify.certificate_s": "s",
    "portfolio.race_s": "s",
    "api.batch_overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.tasks": "count",
    "synthesis.backtracks": "count",
    "lp.bb_nodes": "count",
    "lp.simplex_iterations": "count",
    "portfolio.contenders_launched": "count",
    "portfolio.useful_ratio": "ratio",
    "api.cache_key_ms": "ms",
    "explore.cache_get_ms": "ms",
    "explore.cache_put_ms": "ms",
    "explore.hit_ratio": "ratio",
    "explore.lookups": "count",
    "store.cold_get_ms": "ms",
    "store.syntheses": "count",
    "serve.boot_s": "s",
    "serve.submit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.client_overhead_ms": "ms",
    "serve.polls_per_job": "polls/job",
}


def percentiles_ms(latencies_s) -> tuple:
    """(p50, p95) in milliseconds."""
    values = [latency * 1e3 for latency in latencies_s] * (2 if len(latencies_s) == 1 else 1)
    if not values:
        return 0.0, 0.0
    return statistics.median(values), statistics.quantiles(values, n=20, method="inclusive")[18]


def midmean(values) -> float:
    """Mean of the middle half of ``values`` (all of them when fewer than four)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(outcome) -> dict:
    """Pass time and throughput are the mean of the run's middle half of
    passes; the latency percentiles are over every correctly answered task
    of every pass.

    The pace kernel cancels most of the host's changes of speed but not
    all: on serve-mix the server and its workers share the cores with the
    load process that times the kernel.  Dropping the fastest and slowest
    quarter of the passes keeps a few passes run in an odd phase from
    moving the figure, and averaging the rest keeps more of the run than a
    median pass would.
    """
    rates, latencies = [], []
    for wall, pass_latencies in outcome.passes:
        answered = [latency for latency in pass_latencies if latency is not None]
        rates.append(len(answered) / wall)
        latencies += answered
    p50, p95 = percentiles_ms(latencies)
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "wall_s": midmean(wall for wall, _ in outcome.passes),
        "throughput_per_s": midmean(rates),
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["dse-sweep", "ilp-optimum", "serve-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from pace import REFERENCE_KERNEL_S
    from tracer import Tracer
    from workloads import SCRATCH, WORKLOADS

    tracer = Tracer() if args.trace else None
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    for problem in outcome.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)

    if tracer is None:
        values, units = end_to_end(outcome), END_TO_END
        tasks = len(outcome.passes[0][1])
        print(f"shape tasks_per_pass={tasks} "
              f"feasible_share={outcome.feasible / outcome.attempted:.6f}")
        print(f"pace kernel_ms_median={statistics.median(outcome.kernel_s) * 1e3:.4f} "
              f"kernel_runs={len(outcome.kernel_s)} "
              f"unscaled_wall_s={statistics.fmean(outcome.raw_seconds):.4f} "
              f"(times below: on a host whose kernel takes {REFERENCE_KERNEL_S * 1e3:g} ms)")
        samples = {"setup_s": f"{len(outcome.setup_s)} set-ups",
                   "peak_rss_mb": "1, after the first pass",
                   "latency_p50_ms": f"{len(outcome.passes)} passes x {tasks} tasks",
                   "latency_p95_ms": f"{len(outcome.passes)} passes x {tasks} tasks"}
        default_samples = f"middle half of {len(outcome.passes)} passes"
    else:
        values = {name: outcome.layers.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
        samples, default_samples = {}, "1 traced pass"
        tracer.write(SCRATCH / f"spans-{args.workload}-s{args.seed}.jsonl")
    for name, value in values.items():
        print(f"{args.workload:12s} {name:30s} {value:14.6f} {units[name]:9s} "
              f"n={samples.get(name, default_samples)}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
