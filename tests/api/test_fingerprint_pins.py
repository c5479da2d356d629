"""Pinned content fingerprints for every record that addresses a kind.

Stores, journals, the serve coalescer and the engine's caches all key
on these digests, so any change to canonical JSON encoding or to a
spec's dict form would silently orphan existing data.  The values were
recorded before the kind registries were merged into one
implementation; they must never move without a schema-version bump.
"""

from __future__ import annotations

import pytest

from repro.api import make_spec
from repro.backends import make_backend_spec
from repro.serve import JobSpec
from repro.sweeps import Point
from repro.sweeps.catalog import get_entry

STEP_DRIFT = {"kind": "step", "period": 16, "magnitude": 1.5, "at": 2}


def test_default_tuning_point():
    point = Point(workload={"key": "H2-4"}, scheme="varsaw")
    assert point.fingerprint() == "2954a4346b2613b18d1e02394f5c8d23"


def test_point_with_inline_estimator_backend_and_drift():
    point = Point(
        workload={"key": "H2-4"},
        estimator={"kind": "selective", "mass_fraction": 0.85, "window": 3},
        backend={"kind": "density", "analytic": False},
        device={
            "preset": "ibm_lagos_like",
            "scale": 2.0,
            "drift": STEP_DRIFT,
        },
    )
    assert point.fingerprint() == "446c3ebde9a69093f10b574a0e3da278"


@pytest.mark.parametrize(
    "entry, expected",
    [
        ("fig8", "3891b04e5b619d682c3398786145c5d7"),
        ("ext_drift_frontier", "a573d9bd7d9169c4891f7ce0ca47836a"),
    ],
)
def test_first_catalog_point(entry, expected):
    point = next(iter(get_entry(entry).build().points()))
    assert point.fingerprint() == expected


def test_estimate_job_and_session_key():
    job = JobSpec(
        workload={"key": "H2-4"},
        scheme="jigsaw",
        params=(0.1, 0.2),
        shots=128,
        seed=3,
        estimator={"window": 3},
    )
    assert job.fingerprint() == "e4f131f9018927c11939c8c36bf0a05b"
    assert job.session_key() == (
        '{"backend":null,"device":{"workload_default":{"key":"H2-4"}},'
        '"seed":3}'
    )


def test_tuning_job_with_backend_and_session_key():
    job = JobSpec(
        workload={"qaoa": "ring", "n_qubits": 4},
        kind="tuning",
        scheme="varsaw",
        seed=5,
        backend={"kind": "clifford", "fallback": "dense"},
        device={"preset": "ibmq_mumbai_like", "scale": 1.5},
        max_iterations=10,
    )
    assert job.fingerprint() == "d40b814452de4a136badcce11d90603e"
    assert job.session_key() == (
        '{"backend":{"fallback":"dense","kind":"clifford"},'
        '"device":{"preset":"ibmq_mumbai_like","scale":1.5},"seed":5}'
    )


def test_estimator_spec():
    spec = make_spec("selective", mass_fraction=0.85)
    assert spec.fingerprint() == "c5912bc406b721e4490bb504300a4e59"


def test_backend_spec():
    spec = make_backend_spec("density", analytic=False)
    assert spec.fingerprint() == "794e503fc6f858a0df7bcafce888fdde"
