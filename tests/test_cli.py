"""Unit tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.sweeps import ResultStore


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "H2-4"])
        assert args.scheme == "varsaw"
        assert args.iterations == 100

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "H2-4", "--scheme", "magic"])

    @pytest.mark.parametrize("command", [["run", "H2-4"], ["qaoa"]])
    def test_engine_runs_inline_so_there_is_no_workers_flag(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, "--workers", "2"])

    @pytest.mark.parametrize("command", [["sweep", "grid.json"],
                                         ["reproduce"]])
    def test_workers_is_the_only_pool_flag(self, command):
        args = build_parser().parse_args([*command, "--workers", "2"])
        assert args.workers == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, "--processes", "2"])

    def test_cache_size_zero_turns_off_the_state_cache_too(self):
        from repro.cli import _engine_config
        from repro.engine import EngineConfig, ExecutionEngine
        from repro.noise import SimulatorBackend
        from repro.workloads import make_workload

        args = build_parser().parse_args(["run", "H2-4", "--cache-size", "0"])
        config = _engine_config(args)
        assert config == EngineConfig(cache_size=0)
        default = _engine_config(build_parser().parse_args(["run", "H2-4"]))
        assert default == EngineConfig()
        ansatz = make_workload("H2-4").ansatz
        params = [0.1] * ansatz.num_parameters
        for config, kept in ((config, 0), (default, 1)):
            engine = ExecutionEngine(SimulatorBackend(), config)
            engine.prepare_state(ansatz, params)
            assert engine.stats.state_cache.size == kept


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "CH4-6" in out
        assert "varsaw" in out
        assert "ibmq_mumbai_like" in out
        # The registry's newly exposed kinds are listed too.
        assert "selective" in out
        assert "calibration_gated" in out

    def test_kinds_lists_every_registered_kind(self, capsys):
        from repro.api import estimator_kinds

        assert main(["kinds"]) == 0
        out = capsys.readouterr().out
        for kind in estimator_kinds():
            assert kind in out
        # Typed knobs and defaults are shown.
        assert "mass_fraction" in out
        assert "error_threshold" in out
        assert "register_estimator" in out

    def test_backends_lists_every_registered_backend(self, capsys):
        from repro.backends import BACKENDS

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for kind in BACKENDS.kinds():
            cls = BACKENDS.get(kind)
            assert f"{kind}  ({cls.__name__})" in out
        # Typed knobs and their defaults are shown.
        assert "--  analytic = True" in out
        assert "--  fallback = 'dense'" in out
        assert "register_backend" in out

    def test_run_new_scheme_with_knobs(self, capsys):
        code = main(
            ["run", "H2-4", "--scheme", "selective",
             "--mass-fraction", "0.85", "--global-mode", "always",
             "--iterations", "2", "--shots", "16"]
        )
        assert code == 0
        assert "selective: energy =" in capsys.readouterr().out

    def test_run_gc_scheme(self, capsys):
        code = main(
            ["run", "H2-4", "--scheme", "gc", "--iterations", "2",
             "--shots", "16"]
        )
        assert code == 0
        assert "gc: energy =" in capsys.readouterr().out

    def test_run_knob_for_wrong_scheme_fails_cleanly(self, capsys):
        code = main(
            ["run", "H2-4", "--scheme", "baseline",
             "--mass-fraction", "0.5", "--iterations", "2",
             "--shots", "16"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "mass_fraction" in err
        assert "baseline" in err

    def test_subsets(self, capsys):
        assert main(["subsets"]) == 0
        out = capsys.readouterr().out
        assert "H2-4" in out
        assert "Cr2-34" not in out  # excluded without --all
        assert "x" in out  # reduction column

    def test_run_small(self, capsys):
        code = main(
            ["run", "H2-4", "--scheme", "baseline", "--iterations", "3",
             "--shots", "32", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "energy =" in out
        assert "3 iterations" in out

    def test_run_varsaw_reports_global_fraction(self, capsys):
        code = main(
            ["run", "H2-4", "--scheme", "varsaw", "--iterations", "3",
             "--shots", "32"]
        )
        assert code == 0
        assert "global fraction" in capsys.readouterr().out

    def test_run_with_budget(self, capsys):
        code = main(
            ["run", "H2-4", "--scheme", "baseline", "--budget", "200",
             "--shots", "16"]
        )
        assert code == 0
        assert "circuits" in capsys.readouterr().out

    def test_run_unknown_workload(self, capsys):
        assert main(["run", "Xe-99"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_characterize(self, capsys):
        code = main(
            ["characterize", "--device", "ibm_lagos_like",
             "--qubits", "3", "--shots", "500"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "crosstalk inflation" in out
        assert "best qubits" in out

    def test_grouping(self, capsys):
        assert main(["grouping", "H2-4"]) == 0
        out = capsys.readouterr().out
        assert "QWC groups" in out
        assert "GC  groups" in out

    def test_grouping_unknown_workload(self, capsys):
        assert main(["grouping", "Xe-99"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_qaoa(self, capsys):
        code = main(
            ["qaoa", "--nodes", "4", "--iterations", "5",
             "--shots", "64"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "QAOA p=2" in out
        assert "varsaw" in out

    def test_qaoa_bad_problem_size(self, capsys):
        # 3-regular graphs need n*3 even.
        assert main(["qaoa", "--problem", "regular3", "--nodes", "5"]) == 2

    def test_route(self, capsys):
        assert main(["route", "--qubits", "4"]) == 0
        out = capsys.readouterr().out
        assert "linear" in out
        assert "SWAPs" in out

    def test_route_too_many_qubits(self, capsys):
        code = main(
            ["route", "--device", "ibm_lagos_like", "--qubits", "9"]
        )
        assert code == 2


class TestSweepCommand:
    SPEC = """{
        "name": "cli-grid",
        "base": {"workload": {"key": "H2-4"}, "shots": 16,
                 "max_iterations": 2},
        "axes": {"scheme": ["baseline"], "seed": [0, 1]},
        "report": {"rows": "point.seed", "cols": "point.scheme"}
    }"""

    def write_spec(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(self.SPEC)
        return path

    def test_sweep_then_resume_executes_nothing(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        out_path = tmp_path / "store.jsonl"
        assert main(["sweep", str(spec), "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "executed 2 points" in out
        assert "baseline" in out  # the report pivot printed

        code = main(
            ["sweep", str(spec), "--out", str(out_path), "--resume"]
        )
        assert code == 0
        assert "executed 0 points" in capsys.readouterr().out

    def test_existing_store_requires_resume_flag(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        out_path = tmp_path / "store.jsonl"
        out_path.write_text("")
        assert main(["sweep", str(spec), "--out", str(out_path)]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_missing_spec_file(self, tmp_path, capsys):
        code = main(["sweep", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot load sweep spec" in capsys.readouterr().err

    def test_limit_drips_points(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        out_path = tmp_path / "store.jsonl"
        code = main(
            ["sweep", str(spec), "--out", str(out_path), "--limit", "1"]
        )
        assert code == 0
        assert "1 still pending" in capsys.readouterr().out


class TestCostLine:
    """The end-of-run ``cost:`` line sums the records a run executed."""

    SPEC = """{
        "name": "cost-grid",
        "base": {"workload": {"key": "H2-4"}, "shots": 16,
                 "max_iterations": 2},
        "axes": {"scheme": ["baseline", "varsaw"], "seed": [0, 1]}
    }"""

    @staticmethod
    def printed_cost(out):
        """``(points, circuits, shots)`` from the cost line, or None."""
        lines = [line for line in out.splitlines() if line.startswith("cost:")]
        if not lines:
            return None
        (line,) = lines
        match = re.fullmatch(
            r"cost: (\d+) points in [\d.]+s"
            r"(?:, (\d+) circuits, (\d+) shots)?",
            line,
        )
        assert match, line
        return int(match[1]), int(match[2] or 0), int(match[3] or 0)

    @staticmethod
    def executed_cost(out_path, before):
        """``(points, circuits, shots)`` summed over records not in
        ``before`` (the fingerprints stored before the run)."""
        fresh = [
            record for record in ResultStore(out_path).records()
            if record["fingerprint"] not in before
        ]
        return (
            len(fresh),
            sum(record["result"].get("circuits", 0) for record in fresh),
            sum(record["result"].get("shots", 0) for record in fresh),
        )

    def test_sweep_cost_sums_the_executed_records(self, tmp_path, capsys):
        spec = tmp_path / "grid.json"
        spec.write_text(self.SPEC)
        out_path = tmp_path / "store.jsonl"
        assert main([
            "sweep", str(spec), "--out", str(out_path), "--limit", "2",
        ]) == 0
        first = self.executed_cost(out_path, set())
        assert first[0] == 2 and first[1] > 0 and first[2] > 0
        assert self.printed_cost(capsys.readouterr().out) == first

        before = ResultStore(out_path).keys()
        assert main([
            "sweep", str(spec), "--out", str(out_path), "--resume",
        ]) == 0
        second = self.executed_cost(out_path, before)
        assert second[0] == 2
        assert self.printed_cost(capsys.readouterr().out) == second

        assert main([
            "sweep", str(spec), "--out", str(out_path), "--resume",
        ]) == 0
        assert self.printed_cost(capsys.readouterr().out) is None

    def test_reproduce_cost_sums_the_executed_records(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "repro.jsonl"
        assert main([
            "reproduce", "--only", "fig8", "--out", str(out_path),
            "--no-tables",
        ]) == 0
        assert self.printed_cost(capsys.readouterr().out) == (
            self.executed_cost(out_path, set())
        )

        assert main([
            "reproduce", "--only", "fig8", "--out", str(out_path),
            "--resume", "--no-tables",
        ]) == 0
        assert self.printed_cost(capsys.readouterr().out) is None


class TestReproduce:
    def test_list_entries(self, capsys):
        assert main(["reproduce", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out
        assert "table5" in out
        assert "ext_qaoa" in out

    def test_unknown_entry_rejected(self, tmp_path, capsys):
        code = main([
            "reproduce", "--only", "fig99",
            "--out", str(tmp_path / "s.jsonl"),
        ])
        assert code == 2
        assert "unknown catalog entries" in capsys.readouterr().err

    def test_reproduce_then_resume_executes_nothing(self, tmp_path, capsys):
        out_path = tmp_path / "repro.jsonl"
        assert main([
            "reproduce", "--only", "fig8,fig6_fig7",
            "--out", str(out_path), "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "executed 6 points" in out
        assert "Fig. 8: circuits per VQA iteration" in out

        assert main([
            "reproduce", "--only", "fig8,fig6_fig7",
            "--out", str(out_path), "--resume", "--no-tables",
        ]) == 0
        out = capsys.readouterr().out
        assert "executed 0 points, skipped 6" in out

    def test_limit_interrupts_and_resume_completes(self, tmp_path, capsys):
        out_path = tmp_path / "repro.jsonl"
        assert main([
            "reproduce", "--only", "fig6_fig7",
            "--out", str(out_path), "--limit", "2", "--no-tables",
        ]) == 0
        out = capsys.readouterr().out
        assert "incomplete grids: fig6_fig7" in out

        assert main([
            "reproduce", "--only", "fig6_fig7",
            "--out", str(out_path), "--resume", "--no-tables",
        ]) == 0
        out = capsys.readouterr().out
        assert "executed 3 points, skipped 2" in out

    def test_existing_store_requires_resume_flag(self, tmp_path, capsys):
        out_path = tmp_path / "repro.jsonl"
        out_path.write_text("")
        code = main([
            "reproduce", "--only", "fig8", "--out", str(out_path),
        ])
        assert code == 2
        assert "--resume" in capsys.readouterr().err


class TestServeCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.journal == "serve-journal"
        assert args.port == 8753
        assert args.budget_circuits is None

    def test_submit_requires_workload_or_job(self, capsys):
        assert main(["submit", "--tenant", "alice"]) == 2
        err = capsys.readouterr().err
        assert "--workload" in err

    def test_submit_rejects_invalid_job_before_round_trip(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "job.json"
        bad.write_text('{"workload": {"key": "H2-4"}, "shots": -1}')
        code = main([
            "submit", "--tenant", "alice", "--job", str(bad),
        ])
        assert code == 2
        assert "bad job" in capsys.readouterr().err

    def test_submit_device_flags_build_valid_job(self):
        from repro.cli import _submit_job_payload
        from repro.serve import JobSpec

        args = build_parser().parse_args([
            "submit", "--tenant", "alice", "--workload", "H2-4",
            "--device", "ideal", "--noise-scale", "2.0",
        ])
        payload = _submit_job_payload(args)
        # Preset factories take scale=, not noise_scale=; the payload
        # must materialize cleanly or execution would fail mid-batch.
        assert payload["device"] == {"preset": "ideal", "scale": 2.0}
        JobSpec.from_dict(payload)

    def test_jobs_requires_exactly_one_source(self, capsys):
        assert main(["jobs"]) == 2
        assert main([
            "jobs", "--url", "http://x", "--journal", "y",
        ]) == 2

    def test_jobs_offline_reads_journal_pair(self, tmp_path, capsys):
        from repro.serve import JobSpec, Service

        root = tmp_path / "journal"
        with Service(root, coalesce_window=0.0) as service:
            spec = JobSpec(workload={"key": "H2-4"}, shots=32)
            service.submit("alice", spec)
            service.submit("bob", spec)
            service.drain()

        assert main(["jobs", "--journal", str(root)]) == 0
        out = capsys.readouterr().out
        assert "alice" in out and "bob" in out
        assert "2 journaled requests, 0 pending" in out
        assert "(1 distinct results stored)" in out

    def test_jobs_missing_journal_directory(self, tmp_path, capsys):
        code = main(["jobs", "--journal", str(tmp_path / "nope")])
        assert code == 2
        assert "no journal" in capsys.readouterr().err
