"""Extension: the typed experiment API driving the sweep pipeline.

The ``repro.api`` registry holds per-kind typed ``EstimatorSpec``
dataclasses plus a ``Session`` owning device/backend/seed/engine.
This bench exercises that surface end to end through the declarative
catalog (entry ``ext_api_session``): one tuning grid whose axis is a
list of *inline estimator-spec payloads* — including the ``gc``,
``selective`` and ``calibration_gated`` kinds — each constructed
through ``Session`` inside the sweep runner.

Expected shape: every registered kind tunes (finite energies, charged
circuit ledgers); GC spends several-fold fewer circuits per iteration
than the VarSaw rows; selective mitigation spends no more circuits
than full VarSaw; calibration gating matches VarSaw on this device
(its readout lines are all noisy enough to keep every subset).
"""

from conftest import print_tables

from repro.sweeps import ResultStore, get_entry, run_entry
from repro.sweeps.catalog import api_session_rows


def test_ext_api_session(benchmark, tmp_path):
    entry = get_entry("ext_api_session")
    store = ResultStore(tmp_path / "api.jsonl")
    outcome = benchmark.pedantic(
        lambda: run_entry(entry, store), iterations=1, rounds=1
    )
    print_tables(outcome.tables())
    assert run_entry(entry, store).executed == []

    rows = api_session_rows(outcome.records)
    assert set(rows) == {
        "varsaw", "gc", "selective", "calibration_gated"
    }
    for kind, result in rows.items():
        assert result["circuits"] > 0, kind
        assert result["error"] < 10.0, kind
    # GC groups whole commuting families: far fewer circuits than the
    # subset-based schemes.
    assert rows["gc"]["circuits"] < rows["varsaw"]["circuits"] / 2
    # Selective mitigation only prunes work relative to full VarSaw.
    assert rows["selective"]["circuits"] <= rows["varsaw"]["circuits"]
    # Mumbai-like readout is uniformly bad enough that the calibration
    # gate keeps every subset: bit-identical to plain VarSaw.
    assert rows["calibration_gated"]["energy"] == rows["varsaw"]["energy"]
    assert (
        rows["calibration_gated"]["circuits"] == rows["varsaw"]["circuits"]
    )
