"""The hard invariant: observability never changes a result.

Every run here executes twice — tracing disabled, then enabled onto a
journal — and asserts byte-identical outputs: energies, ledgers, and
stored catalog records.  Spans only observe.
"""

import json

import pytest

from repro import obs
from repro.noise import SimulatorBackend, ibmq_mumbai_like
from repro.api import make_spec
from repro.sweeps.runner import execute_tuning
from repro.workloads import make_workload


def tuning_outcome():
    """One small deterministic tuning run's complete numeric output."""
    workload = make_workload("H2-4")
    backend = SimulatorBackend(ibmq_mumbai_like(scale=2.0), seed=5)
    run = execute_tuning(
        make_spec("varsaw", shots=64), workload, max_iterations=3, seed=5,
        backend=backend,
    )
    return {
        "energy": run.energy,
        "history": list(run.result.energy_history),
        "circuits": run.result.circuits_executed,
        "shots": run.result.shots_executed,
        "ledger": (backend.circuits_run, backend.shots_run),
    }


class TestTuningParity:
    def test_results_identical_with_tracing_on(self, tmp_path):
        baseline = tuning_outcome()
        obs.enable(tmp_path / "trace.jsonl")
        traced = tuning_outcome()
        obs.disable()
        assert traced == baseline

    def test_trace_captured_engine_phases(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.enable(path)
        tuning_outcome()
        obs.disable()
        report = obs.render_trace_report(path)
        assert "engine.batch" in report
        assert "engine.simulate" in report
        assert "engine.sample" in report


class TestCatalogParity:
    """fig8 (a pure cost-model grid) reproduces identically traced."""

    @pytest.fixture
    def run_fig8(self, tmp_path):
        from repro.sweeps import ResultStore
        from repro.sweeps.catalog import reproduce

        def run(name):
            store = ResultStore(tmp_path / f"{name}.jsonl")
            (outcome,) = reproduce(["fig8"], store)
            # Stored records carry wall clocks/timestamps; the paper
            # numbers are the result payloads, keyed by fingerprint.
            return {
                record["fingerprint"]: json.dumps(
                    record["result"], sort_keys=True
                )
                for record in outcome.records
            }

        return run

    def test_records_identical_with_tracing_on(self, tmp_path, run_fig8):
        baseline = run_fig8("off")
        obs.enable(tmp_path / "trace.jsonl")
        traced = run_fig8("on")
        obs.disable()
        assert traced == baseline
        assert baseline  # the grid actually produced records

    def test_sweep_points_appear_in_the_trace(self, tmp_path, run_fig8):
        path = tmp_path / "trace.jsonl"
        obs.enable(path)
        run_fig8("traced")
        obs.disable()
        report = obs.render_trace_report(path)
        assert "sweep.point" in report
        assert "sweep points (" in report


class TestMetricsParity:
    def test_engine_counters_match_the_ledger(self):
        before = obs.REGISTRY.snapshot()
        outcome = tuning_outcome()
        delta = obs.snapshot_delta(obs.REGISTRY.snapshot(), before)
        assert delta["repro_engine_jobs_total"] == outcome["circuits"]
        assert delta["repro_engine_shots_total"] == outcome["shots"]
