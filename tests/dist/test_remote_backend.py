"""The ``remote`` backend: registry, parity, and cache-key folding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import backend_kinds, make_backend
from repro.dist.remote import RemoteBackendSpec
from repro.engine.spec import device_fingerprint
from repro.noise import SimulatorBackend, ibmq_mumbai_like
from repro.sim import compile_plan
from repro.sweeps.runner import execute_point
from repro.sweeps.spec import Point

from .test_wire import _local_probs, _sample_circuit


def test_remote_is_a_registered_builtin_kind():
    assert "remote" in backend_kinds()


def test_remote_matches_dense_bit_for_bit():
    circuit = _sample_circuit()
    dense = SimulatorBackend(None, seed=0)
    remote = make_backend({"kind": "remote", "workers": 1})
    try:
        np.testing.assert_array_equal(
            _local_probs(remote, circuit), _local_probs(dense, circuit)
        )
        for remote_state, dense_state in zip(
            remote.prepare_states([circuit, circuit], compile_plan),
            dense.prepare_states([circuit, circuit], compile_plan),
        ):
            np.testing.assert_array_equal(remote_state, dense_state)
        batched = remote.circuit_probabilities_batch(
            [circuit, circuit], compile_plan
        )
        for row in batched:
            np.testing.assert_array_equal(row, _local_probs(dense, circuit))
    finally:
        remote.close()


def test_clifford_worker_matches_local_clifford():
    ghz = _ghz_circuit()
    local = make_backend("clifford")
    remote = make_backend(
        {"kind": "remote", "worker_backend": "clifford", "workers": 1}
    )
    try:
        np.testing.assert_array_equal(
            _local_probs(remote, ghz), _local_probs(local, ghz)
        )
    finally:
        remote.close()


def _ghz_circuit():
    from repro.circuits import Circuit

    circuit = Circuit(3, name="ghz")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    circuit.measure_all()
    return circuit


def test_cache_keys_fold_worker_kind_in_and_transport_out():
    device = ibmq_mumbai_like()
    dense_fp = device_fingerprint(SimulatorBackend(device, seed=0))
    remote_dense = RemoteBackendSpec().create(device, seed=0)
    remote_wide = RemoteBackendSpec(workers=7, max_retries=9).create(
        device, seed=0
    )
    remote_clifford = RemoteBackendSpec(
        worker_backend="clifford"
    ).create(device, seed=0)
    # A remote backend whose workers simulate densely hits the same
    # memoized PMFs as a local dense backend...
    assert device_fingerprint(remote_dense) == dense_fp
    # ...pool width and retry budget are transport, not physics...
    assert device_fingerprint(remote_wide) == dense_fp
    # ...but the worker's simulation strategy is physics.
    assert device_fingerprint(remote_clifford) != dense_fp


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        RemoteBackendSpec(worker_backend="density")
    with pytest.raises(ValueError):
        RemoteBackendSpec(workers=0)
    with pytest.raises(ValueError):
        RemoteBackendSpec(transport="socket")  # no addresses
    with pytest.raises(ValueError):
        RemoteBackendSpec(transport="pipes", addresses=("h:1",))
    with pytest.raises(ValueError):
        RemoteBackendSpec(transport="carrier-pigeon")
    # A valid socket spec builds without connecting anywhere.
    RemoteBackendSpec(transport="socket", addresses=("127.0.0.1:7631",))


def test_tuning_point_on_remote_backend_matches_dense():
    base = dict(
        workload={"key": "H2-4"},
        scheme="baseline",
        seed=3,
        shots=32,
        max_iterations=2,
    )
    local_result, _ = execute_point(Point(**base), {})
    remote_result, _ = execute_point(
        Point(backend={"kind": "remote", "workers": 1}, **base), {}
    )
    # The backend field is part of the record's point payload, but the
    # computed result must be bit-identical to the dense run.
    assert remote_result == local_result
