"""Unit tests for the command-line interface (python -m repro)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXIT_INFEASIBLE, EXIT_VIOLATIONS, build_parser, main
from repro.ir import save
from repro.suite import hal_cdfg

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synthesize", "-b", "bogus", "-T", "17"])


class TestTable1AndBenchmarks:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Mult (ser.)" in out and "339" in out

    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("hal", "cosine", "elliptic"):
            assert name in out


class TestSynthesize:
    def test_feasible_run(self, capsys):
        code = main(["synthesize", "-b", "hal", "-T", "17", "-P", "12", "--schedule", "--datapath"])
        assert code == 0
        out = capsys.readouterr().out
        assert "synthesis of 'hal'" in out
        assert "cycle" in out          # schedule printed
        assert "datapath for" in out   # datapath printed

    def test_infeasible_run_exit_code(self, capsys):
        code = main(["synthesize", "-b", "hal", "-T", "17", "-P", "2"])
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_verilog_export(self, tmp_path, capsys):
        target = tmp_path / "hal.v"
        code = main(["synthesize", "-b", "hal", "-T", "17", "-P", "12", "--verilog", str(target)])
        assert code == 0
        assert target.read_text().startswith("module")

    def test_cdfg_file_input(self, tmp_path, capsys):
        path = tmp_path / "hal.json"
        save(hal_cdfg(), path)
        code = main(["synthesize", "--cdfg", str(path), "-T", "17", "-P", "12"])
        assert code == 0
        assert "synthesis of 'hal'" in capsys.readouterr().out


class TestSchedulerFlag:
    def test_synthesize_with_registry_scheduler(self, capsys):
        code = main(["synthesize", "-b", "hal", "-T", "20", "--scheduler", "pasap",
                     "-P", "15"])
        assert code == 0
        assert "synthesis of 'hal'" in capsys.readouterr().out

    def test_unknown_scheduler_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["synthesize", "-b", "hal", "-T", "17", "--scheduler", "bogus"]
            )

    def test_power_oblivious_scheduler_under_budget_is_infeasible(self, capsys):
        # asap ignores P; the pipeline's verify pass must flag the violation.
        code = main(["synthesize", "-b", "hal", "-T", "20", "-P", "5",
                     "--scheduler", "asap"])
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err


class TestBatch:
    def _write_batch(self, tmp_path, payload):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_batch_runs_tasks_and_prints_table(self, tmp_path, capsys):
        path = self._write_batch(
            tmp_path,
            [
                {"graph": "hal", "latency": 17, "power_budget": 12.0, "label": "ok"},
                {"graph": "hal", "latency": 17, "power_budget": 2.0, "label": "probe"},
            ],
        )
        assert main(["batch", path]) == 0
        out = capsys.readouterr().out
        assert "Batch results" in out
        assert "1/2 tasks feasible" in out
        assert "probe" in out

    def test_batch_with_sweep_and_jobs_and_output(self, tmp_path, capsys):
        path = self._write_batch(
            tmp_path,
            {"sweeps": [{"graph": "hal", "latency": 17,
                         "power_budgets": [10.0, 12.0, 16.0, 20.0]}]},
        )
        results = tmp_path / "results.json"
        assert main(["batch", path, "--jobs", "2", "-o", str(results)]) == 0
        assert "4/4 tasks feasible" in capsys.readouterr().out
        payload = json.loads(results.read_text())
        assert payload["summary"]["total"] == 4
        assert payload["summary"]["feasible"] == 4
        assert payload["summary"]["certificate_errors"] == 0
        assert len(payload["records"]) == 4
        assert all(r["feasible"] for r in payload["records"])

    def test_malformed_batch_file(self, tmp_path, capsys):
        path = self._write_batch(tmp_path, [{"graph": "hal", "lateny": 17}])
        assert main(["batch", path]) == 1
        assert "bad batch file" in capsys.readouterr().err

    def test_type_malformed_specs_report_cleanly(self, tmp_path, capsys):
        # Non-numeric latency and a scalar sweep budget must not traceback.
        path = self._write_batch(tmp_path, [{"graph": "hal", "latency": "abc"}])
        assert main(["batch", path]) == 1
        assert "bad batch file" in capsys.readouterr().err
        path = self._write_batch(
            tmp_path, {"sweeps": [{"graph": "hal", "latency": 17, "power_budgets": 5}]}
        )
        assert main(["batch", path]) == 1
        assert "bad batch file" in capsys.readouterr().err

    def test_fully_infeasible_batch_exits_2(self, tmp_path, capsys):
        path = self._write_batch(
            tmp_path,
            [{"graph": "hal", "latency": 17, "power_budget": 2.0}],
        )
        assert main(["batch", path]) == EXIT_INFEASIBLE
        assert "0/1 tasks feasible" in capsys.readouterr().out

    def test_unknown_scheduler_in_parallel_batch_reports_bad_task(self, tmp_path, capsys):
        path = self._write_batch(
            tmp_path,
            [
                {"graph": "hal", "latency": 17, "power_budget": 12.0},
                {"graph": "hal", "latency": 17, "scheduler": "bogus"},
            ],
        )
        assert main(["batch", path, "--jobs", "2"]) == 1
        assert "bad task" in capsys.readouterr().err

    def test_numeric_string_fields_are_coerced(self, tmp_path, capsys):
        path = self._write_batch(
            tmp_path, [{"graph": "hal", "latency": "20", "scheduler": "alap",
                        "verify": False}]
        )
        assert main(["batch", path]) == 0
        assert "1/1 tasks feasible" in capsys.readouterr().out


class TestMalformedTasks:
    """A malformed task on the command line is one line of stderr, never a traceback."""

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (["synthesize", "-b", "hal", "-T", "0", "-P", "12"], 1,
             "bad task: latency bound must be positive, got 0"),
            (["synthesize", "-b", "hal", "-T", "17", "-P", "-3"], 1,
             "bad task: power budget must be positive, got -3.0"),
            (["synthesize", "-b", "hal", "-T", "17", "-P", "nan"], 1,
             "bad task: power budget must be finite (null for none), got nan"),
            (["synthesize", "-b", "hal", "-T", "17", "-P", "inf"], 1,
             "bad task: power budget must be finite (null for none), got inf"),
            (["synthesize", "-b", "hal", "-T", "17", "-P", "12",
              "--scheduler", "portfolio", "--deadline", "-1"], 1,
             "bad task: portfolio_deadline_s must be positive"),
            (["sweep", "-b", "hal", "-T", "17", "--steps", "0", "--cap", "60"], 2,
             "argument --steps: a power grid needs at least 2 steps, got 0"),
            (["sweep", "-b", "hal", "-T", "17", "--steps", "1", "--cap", "60"], 2,
             "argument --steps: a power grid needs at least 2 steps, got 1"),
            (["sweep", "-b", "hal", "-T", "17", "--steps", "x"], 2,
             "argument --steps: expected an integer, got 'x'"),
        ],
        ids=["zero-latency", "negative-power", "nan-power", "inf-power", "portfolio-deadline", "zero-steps", "one-step",
             "non-integer-steps"],
    )
    def test_reported_in_one_line(self, argv, code, message):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv], capture_output=True, text=True, env=env
        )
        assert done.returncode == code
        assert message in done.stderr
        assert "Traceback" not in done.stderr


class TestSweepAndProfile:
    def test_sweep(self, capsys):
        code = main(["sweep", "-b", "hal", "-T", "17", "--steps", "3", "--cap", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Power/area sweep" in out
        assert "hal (T=17)" in out

    def test_sweep_infeasible_latency(self, capsys):
        code = main(["sweep", "-b", "hal", "-T", "5", "--steps", "3"])
        assert code == EXIT_INFEASIBLE

    def test_profile_unconstrained(self, capsys):
        code = main(["profile", "-b", "hal"])
        assert code == 0
        assert "power profile" in capsys.readouterr().out

    def test_profile_figure1(self, capsys):
        code = main(["profile", "-b", "hal", "-T", "17", "-P", "11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "undesired" in out and "desired" in out


class TestVerifyFlag:
    def test_verify_prints_certificate_and_succeeds(self, capsys):
        code = main(["synthesize", "-b", "hal", "-T", "17", "-P", "12", "--verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "certificate for 'hal': ok" in out

    def test_verify_works_for_classical_strategies(self, capsys):
        code = main(["synthesize", "-b", "tree", "-T", "12", "-P", "30",
                     "--scheduler", "palap", "--verify"])
        assert code == 0
        assert "certificate for 'tree': ok" in capsys.readouterr().out


class TestFuzz:
    def test_fuzz_smoke_is_clean(self, capsys):
        code = main(["fuzz", "--seeds", "2", "--families", "chain", "tree"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no violations" in out
        assert "chain: 2 case(s)" in out
        assert "tree: 2 case(s)" in out

    def test_fuzz_json_report_schema(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["fuzz", "--seeds", "2", "--families", "mesh",
                     "--schedulers", "pasap", "engine", "-o", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        for key in ("config", "ok", "cases", "runs", "feasible", "cached",
                    "disagreements", "families", "violations", "elapsed"):
            assert key in payload
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert payload["cases"] == 2
        assert payload["config"]["families"] == ["mesh"]
        assert set(payload["families"]) == {"mesh"}

    def test_fuzz_rejects_unknown_family(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--families", "bogus"])

    def test_fuzz_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--schedulers", "bogus"])

    def test_fuzz_resumes_from_cache(self, tmp_path, capsys):
        import re

        def resumed_count(out):
            return int(re.search(r"(\d+) resumed from cache", out).group(1))

        cache_dir = str(tmp_path / "cache")
        args = ["fuzz", "--seeds", "2", "--families", "chain",
                "--schedulers", "pasap", "asap", "--cache-dir", cache_dir]
        assert main(args) == 0
        assert resumed_count(capsys.readouterr().out) == 0

        assert main(args + ["--resume"]) == 0
        assert resumed_count(capsys.readouterr().out) > 0

    def test_exit_violations_code_is_distinct(self):
        assert EXIT_VIOLATIONS not in (0, 1, EXIT_INFEASIBLE)


class TestCacheFlags:
    def test_resume_without_cache_dir_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["sweep", "-b", "hal", "-T", "17", "--steps", "3", "--cap", "60",
                  "--resume"])

    def test_sweep_records_then_resumes(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["sweep", "-b", "hal", "-T", "17", "--steps", "3", "--cap", "60",
                "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 hit(s)" in first  # --cache-dir alone records, never reads
        assert (tmp_path / "cache" / "journal.jsonl").exists()

        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 miss(es)" in second and "0 new record(s)" in second
        assert "Power/area sweep" in second

    def test_legacy_cache_dir_is_refused_with_a_migrate_hint(self, tmp_path):
        from repro.store import LegacyStore

        LegacyStore(tmp_path).put("0" * 64, {"key": "0" * 64, "record": {}})
        with pytest.raises(SystemExit, match="repro store migrate"):
            main(["synthesize", "-b", "hal", "-T", "17", "-P", "12",
                  "--cache-dir", str(tmp_path)])
        assert not (tmp_path / "store.json").exists()

    def test_adaptive_rejects_grid_only_flags(self):
        base = ["sweep", "-b", "hal", "-T", "17", "--adaptive"]
        with pytest.raises(SystemExit):
            main(base + ["--steps", "3"])
        with pytest.raises(SystemExit):
            main(base + ["--jobs", "4"])

    def test_adaptive_sweep_reports_probes(self, tmp_path, capsys):
        code = main(["sweep", "-b", "hal", "-T", "17", "--cap", "40",
                     "--adaptive", "--resolution", "4.0",
                     "--cache-dir", str(tmp_path / "c"), "--resume"])
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive refinement:" in out
        assert "resolution 4" in out

    def test_batch_resume_skips_completed_tasks(self, tmp_path, capsys):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(
            [{"graph": "hal", "latency": 17, "power_budget": p} for p in (9.0, 12.0)]
        ))
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", str(path), "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["batch", str(path), "--cache-dir", cache_dir, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 cache hit(s), 0 computed" in out
        assert "2 hit(s), 0 miss(es)" in out

    def test_portfolio_resume_files_each_key_once(self, tmp_path, capsys):
        from repro.store import iter_journal_payloads

        args = ["synthesize", "-b", "hal", "-T", "17", "-P", "12",
                "--scheduler", "portfolio", "--contenders", "engine", "pasap",
                "--cache-dir", str(tmp_path), "--resume"]
        assert main(args) == 0
        assert main(args) == 0
        assert "portfolio winner: engine" in capsys.readouterr().out
        keys = [key for key, _record in iter_journal_payloads(tmp_path)]
        assert len(keys) == len(set(keys)) == 2

    def test_recording_a_filed_key_again_writes_nothing(self, tmp_path):
        from repro.store import iter_journal_payloads

        args = ["synthesize", "-b", "hal", "-T", "17", "-P", "12", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        segments = sorted(tmp_path.glob("shards/*/append.seg"))
        sizes = [path.stat().st_size for path in segments]
        assert main(args) == 0
        assert len(list(iter_journal_payloads(tmp_path))) == 1
        assert [path.stat().st_size for path in segments] == sizes

    def test_recording_a_portfolio_again_writes_nothing(self, tmp_path):
        from repro.store import iter_journal_payloads

        args = ["synthesize", "-b", "hal", "-T", "17", "-P", "12",
                "--scheduler", "portfolio", "--contenders", "engine", "pasap",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 0
        keys = [key for key, _record in iter_journal_payloads(tmp_path)]
        assert len(keys) == len(set(keys)) == 2


class TestBatchCertificateGate:
    def test_batch_exits_violations_on_certificate_errors(self, tmp_path, capsys, monkeypatch):
        from repro.api.batch import BatchResults, TaskResult

        def rejected_batch(tasks, **_kwargs):
            return BatchResults(
                TaskResult(
                    task=t,
                    feasible=False,
                    error="latency bound exceeded (made up)",
                    error_type="CertificateError",
                )
                for t in tasks
            )

        monkeypatch.setattr("repro.cli.run_batch", rejected_batch)
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([{"graph": "hal", "latency": 17}]))
        assert main(["batch", str(path)]) == EXIT_VIOLATIONS
        assert "failed certificate verification" in capsys.readouterr().err


class TestServeAndSubmit:
    @pytest.fixture()
    def server(self, tmp_path):
        from repro.serve import start_server

        with start_server(workers=2, state_dir=tmp_path / "state") as handle:
            yield handle

    def _batch_file(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(
            [{"graph": "hal", "latency": 17, "power_budget": p} for p in (10.0, 2.0)]
        ))
        return str(path)

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8642 and args.workers == 2

    def test_submit_without_wait_prints_job_ids(self, tmp_path, capsys, server):
        code = main(["submit", self._batch_file(tmp_path), "--url", server.url])
        assert code == 0
        out = capsys.readouterr().out
        assert "submitted 2 job(s)" in out
        assert "job-" in out

    def test_submit_wait_prints_results_table(self, tmp_path, capsys, server):
        code = main(["submit", self._batch_file(tmp_path), "--url", server.url, "--wait"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Served results" in out
        assert "1/2 tasks feasible" in out

        # identical resubmission: answered entirely from the server's cache
        code = main(["submit", self._batch_file(tmp_path), "--url", server.url, "--wait"])
        assert code == 0
        assert "2 cache hit(s), 0 computed" in capsys.readouterr().out

    def test_submit_bad_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["submit", str(path)]) == 1
        assert "bad batch file" in capsys.readouterr().err

    def test_submit_unreachable_server_exits_1(self, tmp_path, capsys):
        code = main(["submit", self._batch_file(tmp_path),
                     "--url", "http://127.0.0.1:1", "--timeout", "0.3"])
        assert code == 1
        assert "server error" in capsys.readouterr().err

    def test_fully_infeasible_served_batch_exits_2(self, tmp_path, capsys, server):
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps([{"graph": "hal", "latency": 17, "power_budget": 2.0}]))
        code = main(["submit", str(path), "--url", server.url, "--wait"])
        assert code == EXIT_INFEASIBLE
