"""Record benchmark runs into the repository's BENCH_*.json history.

pytest-benchmark already measures everything we need; what it lacks is a
*trajectory*: one file, kept in the repository, that accumulates labelled
runs over time so a future session (or the CI perf job) can compare
today's numbers against any earlier state of the code.

This wrapper runs a benchmark module under ``pytest --benchmark-json``,
extracts the per-test statistics, and appends a run entry to the history
file at the repository root::

    python benchmarks/record.py                      # bench_scalability -> BENCH_scalability.json
    python benchmarks/record.py --label after-pr2    # custom run label
    python benchmarks/record.py --bench bench_batch_executor \
        --history BENCH_batch_executor.json          # any other bench module

Each history entry records the label, UTC timestamp, git revision
(``<rev>-dirty`` for a run on uncommitted changes over ``<rev>``) and a
``benchmarks`` list of ``{name, params, mean, min, max, stddev, rounds}``
(seconds), plus the ``extra_info`` a benchmark reports itself (such as
``bench_portfolio``'s ``first_certified_s``).  The file is
human-diffable JSON, so the perf trajectory is reviewed like any other
artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")


def git_revision() -> Optional[str]:
    """The short HEAD revision, with ``-dirty`` appended when tracked
    files (staged or not) differ from it — a run on uncommitted code
    then still names the revision it was made on top of."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        dirty = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--"], cwd=REPO_ROOT
        ).returncode != 0
    except (OSError, subprocess.CalledProcessError):
        return None
    revision = out.stdout.strip()
    if not revision:
        return None
    return f"{revision}-dirty" if dirty else revision


def run_benchmark_json(bench_module: str, pytest_args: List[str]) -> Dict:
    """Run one benchmark module and return pytest-benchmark's JSON report."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = os.path.join(tmp, "benchmark.json")
        command = [
            sys.executable,
            "-m",
            "pytest",
            os.path.join(BENCH_DIR, f"{bench_module}.py"),
            "-q",
            f"--benchmark-json={json_path}",
            *pytest_args,
        ]
        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        completed = subprocess.run(command, cwd=REPO_ROOT, env=env)
        if completed.returncode != 0:
            raise SystemExit(
                f"benchmark run failed with exit code {completed.returncode}"
            )
        with open(json_path) as handle:
            return json.load(handle)


def summarize(report: Dict) -> List[Dict]:
    """Flatten pytest-benchmark's report into history entries."""
    summary = []
    for bench in report.get("benchmarks", []):
        stats = bench.get("stats", {})
        summary.append(
            {
                "name": bench.get("name"),
                "params": bench.get("params") or {},
                "mean": stats.get("mean"),
                "min": stats.get("min"),
                "max": stats.get("max"),
                "stddev": stats.get("stddev"),
                "rounds": stats.get("rounds"),
            }
        )
        if bench.get("extra_info"):
            summary[-1]["extra_info"] = bench["extra_info"]
    summary.sort(key=lambda entry: str(entry["name"]))
    return summary


def append_history(history_path: str, entry: Dict) -> Dict:
    history: Dict = {"runs": []}
    if os.path.exists(history_path):
        with open(history_path) as handle:
            content = handle.read().strip()
        if content:
            history = json.loads(content)
            history.setdefault("runs", [])
    history["runs"].append(entry)
    with open(history_path, "w") as handle:
        json.dump(history, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return history


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench",
        default="bench_scalability",
        help="benchmark module under benchmarks/ to run (default: bench_scalability)",
    )
    parser.add_argument(
        "--history",
        default=None,
        help="history file to append to (default: BENCH_<bench suffix>.json at the repo root)",
    )
    parser.add_argument(
        "--label",
        default="run",
        help="label stored with this run (e.g. 'before', 'after', 'ci')",
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest (e.g. -k 'not 120')",
    )
    args = parser.parse_args(argv)

    history_name = args.history or f"BENCH_{args.bench.removeprefix('bench_')}.json"
    history_path = (
        history_name
        if os.path.isabs(history_name)
        else os.path.join(REPO_ROOT, history_name)
    )

    report = run_benchmark_json(args.bench, args.pytest_args)
    entry = {
        "label": args.label,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_rev": git_revision(),
        "machine": report.get("machine_info", {}).get("node"),
        "benchmarks": summarize(report),
    }
    history = append_history(history_path, entry)
    print(
        f"recorded {len(entry['benchmarks'])} benchmark(s) as {args.label!r} "
        f"in {history_path} ({len(history['runs'])} run(s) total)"
    )


if __name__ == "__main__":
    main()
