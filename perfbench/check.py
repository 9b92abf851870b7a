"""Checks on the benchmark itself, run from the repository root.

    python3 perfbench/check.py holdout            # minutes: one short run per seed
    python3 perfbench/check.py counters           # minutes: two traced runs each
    python3 perfbench/check.py spread --runs 10   # ten timed runs per workload

``holdout`` runs every workload on seeds never used while the benchmark
was tuned, and checks that each run is correct and keeps the tuning seed's
task count per pass and, within a tolerance, its feasible share.
``counters`` checks that every count metric of a traced run repeats
exactly.  ``spread`` runs each workload on ``--runs`` seeds and prints,
per end-to-end metric, the median, the quartiles and the quartile
distance as a share of the median, the figure each metric's bound is set
against; ``--write`` stores them as the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dse-sweep", "ilp-optimum", "serve-mix")
TUNING_SEED = 0
HOLDOUT_SEEDS = range(9000, 9005)
#: A hold-out run is one pass: a run always completes its first pass.
HOLDOUT_SECONDS = 1
#: Largest feasible-share difference between a hold-out seed and the
#: tuning seed (serve-mix draws its hot set per seed).
SHARE_TOLERANCE = 0.1
SHAPE = re.compile(r"^shape tasks_per_pass=(\d+) feasible_share=([0-9.]+)$", re.M)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result line, standard output) of one run that answered correctly."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed\n{completed.stderr}")
    return result, completed.stdout


def holdout() -> int:
    bad = 0
    for workload in WORKLOADS:
        shapes = {}
        for seed in [TUNING_SEED, *HOLDOUT_SEEDS]:
            tasks, share = SHAPE.search(run(workload, seed, HOLDOUT_SECONDS, 0)[1]).groups()
            shapes[seed] = (int(tasks), float(share))
        tasks, share = shapes[TUNING_SEED]
        counts = sorted({count for count, _ in shapes.values()})
        drift = max(abs(shapes[seed][1] - share) for seed in HOLDOUT_SEEDS)
        ok = counts == [tasks] and drift <= SHARE_TOLERANCE
        bad += not ok
        print(f"{workload:12s} tasks per pass {counts}  feasible share {share:.3f} "
              f"(hold-out drift {drift:.3f})  {'ok' if ok else 'FAIL'}", flush=True)
    return 1 if bad else 0


def counters(seconds: int) -> int:
    bad = 0
    for workload in WORKLOADS:
        first, second = (run(workload, 0, seconds, 1)[0]["metrics"] for _ in range(2))
        for name, entry in first.items():
            if entry["unit"] != "count":
                continue
            same = entry["value"] == second[name]["value"]
            bad += not same
            print(f"{workload:12s} {name:30s} {entry['value']:>10} {second[name]['value']:>10} "
                  f"{'ok' if same else 'DIFFERS'}")
    return 1 if bad else 0


def spread(runs: int, seconds: int, write: bool) -> int:
    """Without ``--write``, each median is also compared with the stored
    baseline's, as a share of it."""
    import platform

    baseline_file = HERE / "baseline.json"
    previous = None if write or not baseline_file.exists() else json.loads(baseline_file.read_text())
    baseline = {"nproc": os.cpu_count(), "machine": platform.machine(),
                "python": platform.python_version(), "run_seconds": seconds,
                "seeds": list(range(runs)), "workloads": {}}
    for workload in WORKLOADS:
        values = {}
        tasks = attempted = 0
        for seed in baseline["seeds"]:
            result, stdout = run(workload, seed, seconds, 0)
            tasks = int(SHAPE.search(stdout).group(1))
            attempted += result["attempted"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        table = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            table[name] = {"median": median, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / median, "runs": len(series)}
            versus = ""
            if previous is not None:
                before = previous["workloads"][workload]["metrics"][name]["median"]
                versus = f"  vs baseline {median / before - 1:+.3f}"
            print(f"{workload:12s} {name:18s} median {median:12.4f}  q1 {q1:12.4f}  "
                  f"q3 {q3:12.4f}  spread {(q3 - q1) / median:6.3f}{versus}", flush=True)
        baseline["workloads"][workload] = {"tasks_per_pass": tasks,
                                           "attempted_per_run": attempted / runs,
                                           "metrics": table}
    if write:
        baseline_file.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=["holdout", "counters", "spread"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--write", action="store_true", help="store the spread as baseline.json")
    args = parser.parse_args()
    if args.check == "holdout":
        return holdout()
    if args.check == "counters":
        return counters(args.seconds)
    return spread(args.runs, args.seconds, args.write)


if __name__ == "__main__":
    sys.exit(main())
