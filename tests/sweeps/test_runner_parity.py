"""Process-pool parity: inline and process-pool stores are identical.

The acceptance bar for the process pool: for a grid sample that spans
the workload kinds (molecule + QAOA tuning, a Trotter quench task, a
structure count), the fingerprint -> result mapping stored by
``workers=1`` (inline) and by 2- and 4-process pools must be
bit-identical — per-point deterministic seeding means the pool is pure
mechanics.
"""

from __future__ import annotations

import json

import pytest

from repro.sweeps import Point, ResultStore, run_sweep

#: A cheap cross-kind sample: molecule VQE, QAOA VQE (cold-start SPSA),
#: a Trotter quench cell, and a structure count.
SAMPLE = [
    Point(workload={"key": "H2-4"}, scheme="varsaw", shots=32,
          max_iterations=3, seed=1,
          device={"preset": "ibmq_mumbai_like", "scale": 2.0}),
    Point(workload={"qaoa": "ring", "n_qubits": 4, "reps": 1},
          scheme="baseline", shots=32, max_iterations=3, seed=23,
          spsa_gain=None,
          device={"preset": "ibmq_mumbai_like", "scale": 2.0}),
    Point(task="quench",
          options={"t": 0.25, "n_qubits": 3, "field": 1.2,
                   "shots": 256, "noise_scale": 2.0}),
    Point(task="structure", workload={"key": "H2-4"},
          options={"window": 2}),
]


def stored_results(store: ResultStore) -> dict:
    return {
        record["fingerprint"]: record["result"]
        for record in store.records()
    }


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    store = ResultStore(
        tmp_path_factory.mktemp("serial") / "store.jsonl"
    )
    report = run_sweep(SAMPLE, store, workers=1)
    assert len(report.executed) == len(SAMPLE)
    return stored_results(store)


def test_process_pool_matches_serial(reference, tmp_path):
    store = ResultStore(tmp_path / "processes.jsonl")
    report = run_sweep(SAMPLE, store, workers=4)
    assert len(report.executed) == len(SAMPLE)
    assert stored_results(store) == reference


def test_process_pool_results_are_bit_identical_json(reference, tmp_path):
    """Beyond dict equality: the canonical JSON encodings match, so a
    resumed store file aggregates to identical bytes."""
    store = ResultStore(tmp_path / "bits.jsonl")
    run_sweep(SAMPLE, store, workers=2)
    for fingerprint, result in stored_results(store).items():
        assert json.dumps(result, sort_keys=True) == json.dumps(
            reference[fingerprint], sort_keys=True
        )


def test_process_pool_resumes_by_skipping(reference, tmp_path):
    """A killed process-pool run resumes: completed points skipped."""
    store = ResultStore(tmp_path / "resume.jsonl")
    first = run_sweep(SAMPLE, store, workers=4, limit=2)
    assert len(first.executed) == 2
    # Fresh store object (fresh process), same file: resume.
    resumed = ResultStore(store.path)
    second = run_sweep(SAMPLE, resumed, workers=4)
    assert len(second.executed) == 2
    assert set(second.executed).isdisjoint(first.executed)
    assert stored_results(resumed) == reference
    # And a third pass executes nothing, inline or pooled.
    assert run_sweep(SAMPLE, resumed).executed == []
    assert run_sweep(SAMPLE, resumed, workers=2).executed == []
