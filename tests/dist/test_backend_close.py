"""Whoever builds a backend closes it: no ``remote`` worker outlives its
owner.

Three owners build backends from a kind, spec or payload — a
:class:`~repro.api.Session`, a :class:`~repro.serve.Service` (through
its coalescer's sessions) and a sweep tuning point — and each must
release the worker processes a ``remote`` backend started.  A live
backend handed to a session stays open for the caller who built it.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.api import Session
from repro.backends import make_backend
from repro.noise import SimulatorBackend, ibmq_mumbai_like
from repro.serve import JobSpec, Service
from repro.sweeps.runner import execute_point
from repro.sweeps.spec import Point
from repro.workloads import make_workload

REMOTE = {"kind": "remote", "workers": 2}


def live_children() -> set[int]:
    """PIDs of this process's live child processes."""
    return {child.pid for child in multiprocessing.active_children()}


@pytest.fixture
def new_children():
    """PIDs of child processes started since the test began."""
    before = live_children()
    return lambda: live_children() - before


@pytest.fixture(scope="module")
def workload():
    return make_workload("H2-4", reps=1, entanglement="linear")


def evaluate_once(session, workload) -> float:
    estimator = session.estimator("baseline", workload, shots=16)
    return estimator.evaluate(np.zeros(workload.ansatz.num_parameters))


def test_the_base_backend_close_is_a_no_op():
    backend = SimulatorBackend(ibmq_mumbai_like(), seed=0)
    backend.close()
    backend.close()
    assert backend.circuits_run == 0


def test_closed_sessions_leave_no_remote_workers(workload, new_children):
    for seed in range(3):
        with Session(ibmq_mumbai_like(), seed=seed, backend=REMOTE) as s:
            evaluate_once(s, workload)
            assert len(new_children()) == 2
        assert s.ledger().circuits > 0
    assert new_children() == set()


def test_a_session_leaves_an_adopted_backend_open(workload, new_children):
    backend = make_backend(REMOTE, ibmq_mumbai_like(), seed=0)
    try:
        with Session(backend=backend) as session:
            evaluate_once(session, workload)
        assert len(new_children()) == 2
        # Still usable by its owner after the session closed.
        charged = backend.circuits_run
        evaluate_once(session, workload)
        assert backend.circuits_run > charged
        assert len(new_children()) == 2
    finally:
        backend.close()
    assert new_children() == set()


def test_service_close_releases_remote_workers(tmp_path, new_children):
    with Service(tmp_path / "journal") as service:
        request = service.submit(
            "alice",
            JobSpec(workload={"key": "H2-4"}, shots=16, backend=REMOTE),
        )
        service.drain()
        assert request.future.result()["result"]["kind"] == "estimate"
        assert len(new_children()) == 2
    assert new_children() == set()


def test_tuning_points_release_remote_workers(new_children):
    for seed in range(3):
        execute_point(
            Point(
                workload={"key": "H2-4"},
                scheme="baseline",
                seed=seed,
                shots=16,
                max_iterations=1,
                backend=REMOTE,
            ),
            {},
        )
    assert new_children() == set()
