"""Canonical wire protocol for distributed circuit execution.

One encoding shared by every transport: messages are canonical JSON
(sorted keys, compact separators, exact shortest-round-trip floats)
encoded as UTF-8, framed with a 4-byte big-endian length prefix when
the channel is a byte stream (sockets) and handed whole to channels
that frame natively (``multiprocessing`` pipes).  Because Python's
``json`` emits the shortest representation that round-trips a float64
exactly, probability vectors and statevector amplitudes cross the wire
bit-identically — the foundation of the subsystem's hard invariant
that remote execution produces records byte-identical to local runs.

The request vocabulary is tiny and side-effect-free:

``ping``
    Liveness probe; echoes the worker id.
``probs``
    A batch of circuits -> one ideal (pre-noise) probability row per
    circuit, computed by the worker's backend kind.
``prepare``
    A batch of circuits -> one statevector per circuit.
``crash``
    Fault injection: the worker exits immediately without replying
    (tests and smoke jobs use it to exercise the retry path).
``shutdown``
    Orderly worker exit after acknowledging.

Requests carry everything the worker needs (backend kind, circuits),
so any reply can be recomputed by any worker — the property that makes
resubmission after a worker death safe: re-running a request never
changes what it returns and never duplicates observable work.
:func:`execute_request` is the single worker-side dispatcher both the
pipe and socket workers run.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Mapping
from typing import Any, BinaryIO

import numpy as np

from ..circuits import Circuit
from ..sim.plan import compile_plan

__all__ = [
    "MAX_FRAME_BYTES",
    "WIRE_SCHEMA_VERSION",
    "WireError",
    "circuit_from_wire",
    "circuit_to_wire",
    "decode_message",
    "encode_message",
    "execute_request",
    "read_frame",
    "state_from_wire",
    "state_to_wire",
    "write_frame",
]

#: Version stamped into every message; workers reject mismatches
#: instead of guessing at a foreign encoding.
WIRE_SCHEMA_VERSION = 1

#: Upper bound on a single frame.  A 24-qubit statevector batch is
#: ~0.5 GB of JSON; anything larger is a protocol error, not a payload.
MAX_FRAME_BYTES = 1 << 30

_HEADER = struct.Struct(">I")

#: Worker backend kinds whose ``circuit_probabilities_batch`` is a pure
#: function of the circuit alone (no device, no RNG) — the only kinds
#: safe to evaluate remotely without shipping noise state.
WORKER_BACKEND_KINDS = ("dense", "clifford")


class WireError(ValueError):
    """A malformed frame or message (protocol, not transport, failure)."""


# ----------------------------------------------------------- encoding


def encode_message(message: Mapping[str, Any]) -> bytes:
    """Canonical-JSON bytes for ``message`` (sorted keys, exact floats)."""
    text = json.dumps(
        message, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return text.encode("utf-8")


def decode_message(data: bytes) -> dict[str, Any]:
    """Parse one encoded message; raise :class:`WireError` if invalid."""
    try:
        message = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable wire message: {exc}") from exc
    if not isinstance(message, dict):
        raise WireError(
            f"wire message must be a JSON object; got "
            f"{type(message).__name__}"
        )
    return message


# ----------------------------------------------------------- circuits


def circuit_to_wire(circuit: Circuit) -> dict[str, Any]:
    """Serialize ``circuit`` to the canonical JSON gate-list form.

    Raises ``ValueError`` on unbound symbolic parameters — the same
    rule the engine applies before simulation, so a circuit that can
    run locally can always cross the wire.
    """
    gates: list[list[Any]] = []
    for ins in circuit.instructions:
        if not ins.is_bound():
            raise ValueError(
                f"cannot serialize unbound parameter {ins.param!r} in "
                f"gate {ins.name!r}; bind the circuit first"
            )
        entry: list[Any] = [ins.name, list(ins.qubits)]
        if ins.param is not None:
            entry.append(float(ins.param))
        gates.append(entry)
    return {
        "n": circuit.n_qubits,
        "name": circuit.name,
        "gates": gates,
        "measured": sorted(circuit.measured_qubits),
    }


def circuit_from_wire(data: Mapping[str, Any]) -> Circuit:
    """Rebuild a :class:`~repro.circuits.Circuit` from wire form."""
    try:
        circuit = Circuit(int(data["n"]), name=str(data.get("name", "")))
        for entry in data["gates"]:
            name, qubits = entry[0], entry[1]
            param = float(entry[2]) if len(entry) > 2 else None
            circuit.append(name, qubits, param)
        circuit.measure(data.get("measured", ()))
    except (KeyError, TypeError, IndexError) as exc:
        raise WireError(f"malformed wire circuit: {exc!r}") from exc
    return circuit


# ------------------------------------------------------- statevectors


def state_to_wire(state: np.ndarray) -> dict[str, Any]:
    """Serialize a complex statevector as exact real/imag float lists."""
    amplitudes = np.asarray(state, dtype=complex).ravel()
    return {
        "re": [float(x) for x in amplitudes.real],
        "im": [float(x) for x in amplitudes.imag],
    }


def state_from_wire(data: Mapping[str, Any]) -> np.ndarray:
    """Rebuild the complex statevector from :func:`state_to_wire` form."""
    real = np.asarray(data["re"], dtype=float)
    imag = np.asarray(data["im"], dtype=float)
    if real.shape != imag.shape:
        raise WireError("statevector re/im length mismatch")
    return real + 1j * imag


# -------------------------------------------------------------- frames


def write_frame(stream: BinaryIO, payload: bytes) -> None:
    """Write one length-prefixed frame and flush the stream."""
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    stream.write(_HEADER.pack(len(payload)))
    stream.write(payload)
    stream.flush()


def read_frame(stream: BinaryIO) -> bytes:
    """Read one length-prefixed frame; ``EOFError`` on a closed stream."""
    header = _read_exact(stream, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"incoming frame of {length} bytes exceeds MAX_FRAME_BYTES"
        )
    return _read_exact(stream, length)


def _read_exact(stream: BinaryIO, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise ``EOFError``."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            raise EOFError("wire stream closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------- worker-side dispatch


def _worker_backend(state: dict[str, Any], desc: Mapping[str, Any]):
    """The worker's backend for ``desc`` (built once, cached in state).

    Workers evaluate only the ideal, device-independent half of the
    pipeline, so the backend is constructed with no device model; the
    coordinator keeps noise and sampling local.
    """
    kind = desc.get("kind", "dense")
    if kind not in WORKER_BACKEND_KINDS:
        raise WireError(
            f"worker backend kind must be one of "
            f"{WORKER_BACKEND_KINDS}; got {kind!r}"
        )
    cache = state.setdefault("backends", {})
    key = encode_message(dict(desc))
    if key not in cache:
        from ..backends import make_backend

        cache[key] = make_backend(dict(desc), device=None, seed=0)
    return cache[key]


def execute_request(
    message: Mapping[str, Any], state: dict[str, Any]
) -> dict[str, Any]:
    """Serve one request; the single dispatcher every worker loop runs.

    ``state`` is the worker's private scratch dict (backend cache,
    worker id).  Application failures come back as ``{"ok": False}``
    replies — they are deterministic and must not be retried; only
    transport-level death triggers the pool's retry path.
    """
    op = message.get("op")
    reply: dict[str, Any] = {
        "id": message.get("id"),
        "op": op,
        "schema": WIRE_SCHEMA_VERSION,
    }
    try:
        if message.get("schema") != WIRE_SCHEMA_VERSION:
            raise WireError(
                f"wire schema {message.get('schema')!r} != "
                f"{WIRE_SCHEMA_VERSION}"
            )
        if op == "ping":
            reply.update(ok=True, worker=state.get("worker_id"))
        elif op == "crash":
            os._exit(1)
        elif op == "shutdown":
            reply.update(ok=True)
            state["shutdown"] = True
        elif op in ("probs", "prepare"):
            backend = _worker_backend(state, message.get("backend", {}))
            circuits = [
                circuit_from_wire(c) for c in message.get("circuits", [])
            ]
            if op == "probs":
                results: list[Any] = [
                    [float(p) for p in row]
                    for row in backend.circuit_probabilities_batch(
                        circuits, compile_plan
                    )
                ]
            else:
                results = [
                    state_to_wire(state)
                    for state in backend.prepare_states(
                        circuits, compile_plan
                    )
                ]
            reply.update(ok=True, results=results)
        else:
            raise WireError(f"unknown wire op {op!r}")
    except Exception as exc:  # noqa: BLE001 - reply carries the error
        reply.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    return reply
