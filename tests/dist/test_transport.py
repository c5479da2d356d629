"""Transport tests: pipe/socket channels and the retrying pool."""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.dist.transport import (
    PipeChannel,
    RemoteExecutionError,
    SocketChannel,
    TransportError,
    WorkerPool,
    serve_socket_worker,
)
from repro.dist.wire import circuit_to_wire
from repro.noise import SimulatorBackend
from repro.obs import REGISTRY, snapshot_delta

from .test_wire import _local_probs, _sample_circuit


@pytest.fixture
def pipe_pool():
    pool = WorkerPool([PipeChannel(), PipeChannel()], max_retries=2)
    yield pool
    pool.close()


def test_pipe_pool_probs_match_local(pipe_pool):
    circuit = _sample_circuit()
    reply = pipe_pool.submit(
        {
            "op": "probs",
            "backend": {"kind": "dense"},
            "circuits": [circuit_to_wire(circuit)],
        }
    )
    local = _local_probs(SimulatorBackend(None, seed=0), circuit)
    np.testing.assert_array_equal(np.asarray(reply["results"][0]), local)


def test_killed_worker_is_restarted_and_request_retried():
    channel = PipeChannel()
    pool = WorkerPool([channel], max_retries=2)
    try:
        assert pool.submit({"op": "ping"})["ok"]
        before = REGISTRY.snapshot()
        os.kill(channel.worker_pid, signal.SIGKILL)
        time.sleep(0.1)
        # The dead worker surfaces as a TransportError mid-request;
        # the pool restarts the channel and resubmits transparently.
        assert pool.submit({"op": "ping"})["ok"]
        delta = snapshot_delta(REGISTRY.snapshot(), before)
        assert delta.get("repro_dist_worker_deaths_total", 0) >= 1
        assert delta.get("repro_dist_retries_total", 0) >= 1
    finally:
        pool.close()


def test_crash_op_exhausts_retries():
    pool = WorkerPool([PipeChannel()], max_retries=1)
    try:
        # Every resubmission lands on a fresh worker that also crashes,
        # so the bounded retry budget runs out and the failure surfaces.
        with pytest.raises(TransportError):
            pool.submit({"op": "crash"})
    finally:
        pool.close()


def test_application_errors_are_not_retried():
    pool = WorkerPool([PipeChannel()], max_retries=2)
    try:
        before = REGISTRY.snapshot()
        with pytest.raises(RemoteExecutionError):
            pool.submit({"op": "frobnicate"})
        delta = snapshot_delta(REGISTRY.snapshot(), before)
        assert delta.get("repro_dist_retries_total", 0) == 0
    finally:
        pool.close()


def test_socket_worker_round_trip():
    ready = threading.Event()
    server, port = serve_socket_worker(ready=ready)
    assert ready.wait(timeout=10)
    circuit = _sample_circuit()
    pool = WorkerPool([SocketChannel(f"127.0.0.1:{port}")])
    try:
        ping = pool.submit({"op": "ping"})
        assert ping["ok"] and ping["worker"] == f"socket:{port}"
        reply = pool.submit(
            {
                "op": "probs",
                "backend": {"kind": "dense"},
                "circuits": [circuit_to_wire(circuit)],
            }
        )
        local = _local_probs(SimulatorBackend(None, seed=0), circuit)
        np.testing.assert_array_equal(
            np.asarray(reply["results"][0]), local
        )
    finally:
        pool.close()
        server.close()


def test_socket_channel_rejects_bad_address():
    with pytest.raises(ValueError, match="host:port"):
        SocketChannel("nonsense")
