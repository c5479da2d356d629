"""Runner behaviour: resume-by-skip, worker parity, point mechanics."""

import pytest

from repro.sweeps import (
    Point,
    ResultStore,
    SweepSpec,
    execute_point,
    pivot,
    run_sweep,
)
from repro.sweeps.runner import materialize_device, materialize_workload

SPEC = SweepSpec(
    name="runner-grid",
    base={
        "workload": {"key": "H2-4"},
        "shots": 32,
        "max_iterations": 3,
        "device": {"preset": "ibmq_mumbai_like", "scale": 2.0},
    },
    axes={"scheme": ["baseline", "varsaw"], "seed": [0, 1]},
)


def stored_results(report):
    """Fingerprint -> result payload (timing fields excluded)."""
    return {fp: rec["result"] for fp, rec in report.records.items()}


class TestRunSweep:
    def test_full_run_executes_every_point_once(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        report = run_sweep(SPEC, store)
        assert report.total == 4
        assert report.skipped == 0
        assert sorted(report.executed) == sorted(
            p.fingerprint() for p in SPEC.points()
        )
        record = next(iter(report.records.values()))
        assert record["wall_time_s"] > 0
        assert record["result"]["circuits"] > 0
        assert record["result"]["shots"] > 0

    def test_interrupted_sweep_resumes_with_only_pending_points(
        self, tmp_path
    ):
        # Uninterrupted serial reference run.
        reference = run_sweep(SPEC, ResultStore(tmp_path / "ref.jsonl"))

        # "Killed" run: only 2 of 4 points complete...
        store = ResultStore(tmp_path / "killed.jsonl")
        first = run_sweep(SPEC, store, limit=2)
        assert len(first.executed) == 2
        assert first.pending_after == 2

        # ...then the process dies and a fresh one resumes from disk.
        resumed_store = ResultStore(tmp_path / "killed.jsonl")
        second = run_sweep(SPEC, resumed_store)
        assert len(second.executed) == 2
        assert set(second.executed).isdisjoint(first.executed)

        # The resumed store is bit-identical to the uninterrupted run,
        assert stored_results(second) == stored_results(reference)
        # and so is every table derived from it (each cell a mean over
        # both seeds).
        by = ("point.scheme", "point.workload.key")
        assert pivot(second.records.values(), *by) == pivot(
            reference.records.values(), *by
        )

    def test_resume_after_torn_tail_reexecutes_only_lost_points(
        self, tmp_path
    ):
        path = tmp_path / "torn.jsonl"
        run_sweep(SPEC, ResultStore(path))
        data = path.read_bytes()
        path.write_bytes(data[:-30])  # kill -9 mid-final-append

        store = ResultStore(path)
        report = run_sweep(SPEC, store)
        assert len(report.executed) == 1  # only the torn record re-ran
        assert len(report.records) == 4

    def test_workers_produce_identical_stored_results(self, tmp_path):
        serial = run_sweep(SPEC, ResultStore(tmp_path / "w1.jsonl"),
                           workers=1)
        pooled = run_sweep(SPEC, ResultStore(tmp_path / "w4.jsonl"),
                           workers=4)
        assert stored_results(serial) == stored_results(pooled)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_callback_sees_every_execution(self, tmp_path, workers):
        seen = []

        def progress(done, total, point, record, state):
            seen.append((done, total, point.fingerprint(), state))

        run_sweep(
            SPEC,
            ResultStore(tmp_path / "s.jsonl"),
            workers=workers,
            progress=progress,
        )
        assert [done for done, _, _, _ in seen] == [1, 2, 3, 4]
        assert all(total == 4 for _, total, _, _ in seen)
        assert all(
            state.points_done == done for done, _, _, state in seen
        )
        assert len({fingerprint for _, _, fingerprint, _ in seen}) == 4

    def test_rerun_executes_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        run_sweep(SPEC, store)
        report = run_sweep(SPEC, store)
        assert report.executed == []
        assert report.skipped == 4
        assert "skipped 4" in report.summary()

    def test_duplicate_points_execute_once(self, tmp_path):
        points = list(SPEC.points())[:1] * 3
        report = run_sweep(points, ResultStore(tmp_path / "s.jsonl"))
        assert report.total == 1
        assert len(report.executed) == 1

    def test_invalid_workers_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(SPEC, ResultStore(tmp_path / "s.jsonl"), workers=0)


class TestExecutePoint:
    def test_result_payload_is_json_safe_and_complete(self):
        point = Point(
            workload={"key": "H2-4"},
            scheme="varsaw",
            shots=32,
            max_iterations=3,
            seed=1,
        )
        result, wall = execute_point(point)
        assert wall >= 0
        assert set(result) == {
            "energy", "ideal_energy", "error", "iterations",
            "iterations_completed", "circuits", "shots",
            "global_fraction", "stop_reason",
        }
        assert isinstance(result["energy"], float)
        assert result["error"] == pytest.approx(
            abs(result["energy"] - result["ideal_energy"])
        )
        assert 0.0 <= result["global_fraction"] <= 1.0

    def test_baseline_has_no_global_fraction(self):
        point = Point(
            workload={"key": "H2-4"}, scheme="baseline", shots=32,
            max_iterations=2,
        )
        result, _ = execute_point(point)
        assert result["global_fraction"] is None

    def test_warm_start_changes_the_run(self):
        cold = Point(
            workload={"key": "H2-4"}, scheme="baseline", shots=32,
            max_iterations=2, seed=0,
        )
        warm = Point(
            workload={"key": "H2-4"}, scheme="baseline", shots=32,
            max_iterations=2, seed=0, warm_start_iterations=20,
        )
        cold_result, _ = execute_point(cold)
        warm_result, _ = execute_point(warm)
        assert cold.fingerprint() != warm.fingerprint()
        assert cold_result["energy"] != warm_result["energy"]

    def test_spin_workload_points_materialize(self):
        point = Point(
            workload={"model": "tfim", "n_qubits": 3},
            scheme="baseline",
            shots=32,
            max_iterations=2,
        )
        result, _ = execute_point(point)
        assert isinstance(result["energy"], float)


class TestMaterialization:
    def test_molecule_and_spin_descriptions(self):
        molecule = materialize_workload({"key": "H2-4"})
        assert molecule.key == "H2-4"
        spin = materialize_workload(
            {"model": "tfim", "n_qubits": 3, "reps": 1}
        )
        assert spin.n_qubits == 3

    def test_device_presets(self):
        assert materialize_device(None) is None
        device = materialize_device(
            {"preset": "ibmq_mumbai_like", "scale": 2.0}
        )
        assert device.n_qubits >= 4
        with pytest.raises(ValueError):
            materialize_device({"preset": "not_a_device"})


class TestAggregate:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        store = ResultStore(
            tmp_path_factory.mktemp("agg") / "s.jsonl"
        )
        return list(run_sweep(SPEC, store).records.values())

    def test_pivot_matches_record_values(self, records):
        rows, cols, cells = pivot(
            records, "point.scheme", "point.seed"
        )
        assert rows == ["baseline", "varsaw"]
        assert cols == [0, 1]
        for record in records:
            key = (record["point"]["scheme"], record["point"]["seed"])
            assert cells[key] == record["result"]["energy"]
        # A cell holding several records (here both seeds) is their mean.
        _, _, means = pivot(records, "point.scheme", "point.workload.key")
        for scheme in rows:
            energies = [cells[scheme, seed] for seed in cols]
            assert means[scheme, "H2-4"] == sum(energies) / len(energies)
