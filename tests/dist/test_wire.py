"""Wire-protocol tests: exact round trips and protocol errors."""

from __future__ import annotations

import io
import struct

import numpy as np
import pytest

from repro.circuits import Circuit, Parameter
from repro.dist.wire import (
    MAX_FRAME_BYTES,
    WIRE_SCHEMA_VERSION,
    WireError,
    circuit_from_wire,
    circuit_to_wire,
    decode_message,
    encode_message,
    execute_request,
    read_frame,
    state_from_wire,
    state_to_wire,
    write_frame,
)
from repro.noise import SimulatorBackend
from repro.sim import compile_plan


def _sample_circuit() -> Circuit:
    circuit = Circuit(3, name="wire-sample")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.rz(0.3125, 2)
    circuit.cx(1, 2)
    circuit.measure([0, 2])
    return circuit


def _local_probs(backend, circuit: Circuit) -> np.ndarray:
    """``backend``'s ideal probabilities of one circuit, computed here."""
    (row,) = backend.circuit_probabilities_batch([circuit], compile_plan)
    return row


def test_circuit_round_trip_is_exact():
    circuit = _sample_circuit()
    rebuilt = circuit_from_wire(circuit_to_wire(circuit))
    assert rebuilt.n_qubits == circuit.n_qubits
    assert rebuilt.name == circuit.name
    assert sorted(rebuilt.measured_qubits) == sorted(
        circuit.measured_qubits
    )
    local = SimulatorBackend(None, seed=0)
    np.testing.assert_array_equal(
        _local_probs(local, rebuilt), _local_probs(local, circuit)
    )


def test_unbound_parameter_rejected():
    circuit = Circuit(1)
    circuit.rz(Parameter("theta"), 0)
    with pytest.raises(ValueError, match="unbound"):
        circuit_to_wire(circuit)


def test_malformed_wire_circuit_raises_wire_error():
    with pytest.raises(WireError):
        circuit_from_wire({"gates": []})  # no qubit count
    with pytest.raises(WireError):
        circuit_from_wire({"n": 2, "gates": [["h"]]})  # no qubits


def test_statevector_round_trip_is_exact():
    rng = np.random.default_rng(5)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    rebuilt = state_from_wire(state_to_wire(state))
    np.testing.assert_array_equal(rebuilt, state)


def test_statevector_length_mismatch():
    with pytest.raises(WireError):
        state_from_wire({"re": [1.0, 0.0], "im": [0.0]})


def test_decode_rejects_garbage_and_non_objects():
    with pytest.raises(WireError):
        decode_message(b"\xff\xfe not json")
    with pytest.raises(WireError):
        decode_message(b"[1, 2, 3]")
    assert decode_message(encode_message({"op": "ping"})) == {
        "op": "ping"
    }


def test_frame_round_trip_and_errors():
    stream = io.BytesIO()
    write_frame(stream, b"hello")
    write_frame(stream, b"")
    stream.seek(0)
    assert read_frame(stream) == b"hello"
    assert read_frame(stream) == b""
    with pytest.raises(EOFError):
        read_frame(stream)
    # A frame truncated mid-payload is EOF, not garbage data.
    torn = io.BytesIO(struct.pack(">I", 10) + b"abc")
    with pytest.raises(EOFError):
        read_frame(torn)
    # An absurd length header is a protocol error.
    huge = io.BytesIO(struct.pack(">I", MAX_FRAME_BYTES + 1))
    with pytest.raises(WireError):
        read_frame(huge)


def _request(op: str, **fields) -> dict:
    message = {"op": op, "id": 7, "schema": WIRE_SCHEMA_VERSION}
    message.update(fields)
    return message


def test_execute_request_ping_echoes_worker_id():
    reply = execute_request(
        _request("ping"), {"worker_id": "w-test"}
    )
    assert reply["ok"] and reply["worker"] == "w-test"
    assert reply["id"] == 7


def test_execute_request_rejects_schema_mismatch_and_unknown_op():
    bad_schema = execute_request({"op": "ping", "schema": 999}, {})
    assert not bad_schema["ok"] and "schema" in bad_schema["error"]
    unknown = execute_request(_request("frobnicate"), {})
    assert not unknown["ok"] and "unknown wire op" in unknown["error"]


def test_execute_request_probs_matches_local_backend():
    circuit = _sample_circuit()
    reply = execute_request(
        _request(
            "probs",
            backend={"kind": "dense"},
            circuits=[circuit_to_wire(circuit)] * 2,
        ),
        {},
    )
    assert reply["ok"]
    local = _local_probs(SimulatorBackend(None, seed=0), circuit)
    for row in reply["results"]:
        np.testing.assert_array_equal(np.asarray(row), local)


def test_execute_request_rejects_non_worker_backend_kind():
    reply = execute_request(
        _request("probs", backend={"kind": "density"}, circuits=[]),
        {},
    )
    assert not reply["ok"] and "worker backend kind" in reply["error"]
