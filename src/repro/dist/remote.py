"""The ``remote`` execution backend: circuits evaluated by a worker pool.

:class:`RemoteBackend` is a :class:`~repro.noise.SimulatorBackend`
whose simulation hooks — ``circuit_probabilities_batch`` and
``prepare_states`` — ship each serialized circuit batch as one request
to a pool of worker processes (local forks over ``multiprocessing``
pipes, or remote hosts over the length-prefixed socket transport) and
read exact float results back.  Everything else — the noise pipeline,
sampling, the cost ledger — runs locally and unchanged, so any
estimator kind runs on ``remote`` exactly as it would on the worker's
backend kind: results are bit-identical to a local run of that kind.

Cache-key discipline: the backend advertises its *worker's* kind as
``backend_kind``, so :func:`repro.engine.spec.device_fingerprint`
folds the worker-side simulation strategy **into** engine cache keys
while folding transport identity (pipes vs sockets, pool width, retry
budget) **out** — a PMF computed via two pipe workers is the same
cache entry as one computed over sockets or locally.

Worker death is absorbed by the pool's bounded retry (see
:class:`~repro.dist.transport.WorkerPool`): requests are pure, so a
killed worker's batch is resubmitted without loss or duplication.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..api.spec import check_choice, check_int
from ..backends import register_backend
from ..backends.spec import BackendSpec
from ..circuits import Circuit
from ..noise import DeviceModel, SimulatorBackend
from ..noise.backend import PlanFor
from .transport import PipeChannel, SocketChannel, WorkerPool
from .wire import (
    WORKER_BACKEND_KINDS,
    circuit_to_wire,
    state_from_wire,
)

__all__ = ["RemoteBackend", "RemoteBackendSpec", "TRANSPORTS"]

#: Supported transport names for :class:`RemoteBackendSpec`.
TRANSPORTS = ("pipes", "socket")


class RemoteBackend(SimulatorBackend):
    """A simulator backend whose ideal evaluation runs on remote workers.

    ``spec`` is the :class:`RemoteBackendSpec` that built it.  The
    worker pool is created lazily on first use and torn down by
    :meth:`close` (pipe workers are daemonic, so they also die with
    the parent process).
    """

    def __init__(
        self,
        device: DeviceModel | None = None,
        seed: int | None = None,
        spec: "RemoteBackendSpec | None" = None,
    ):
        super().__init__(device, seed=seed)
        self.spec = spec if spec is not None else RemoteBackendSpec()
        # Instance attribute shadows the class default: engine cache
        # keys see the worker's simulation kind, not "remote".
        self.backend_kind = self.spec.worker_backend
        self._pool: WorkerPool | None = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------- transport

    def _worker_pool(self) -> WorkerPool:
        with self._pool_lock:
            if self._pool is None:
                if self.spec.transport == "pipes":
                    channels: list = [
                        PipeChannel() for _ in range(self.spec.workers)
                    ]
                else:
                    channels = [
                        SocketChannel(address)
                        for address in self.spec.addresses
                    ]
                self._pool = WorkerPool(
                    channels, max_retries=self.spec.max_retries
                )
            return self._pool

    def _submit_batch(self, op: str, circuits: list[Circuit]) -> list:
        reply = self._worker_pool().submit(
            {
                "op": op,
                "backend": {"kind": self.spec.worker_backend},
                "circuits": [circuit_to_wire(c) for c in circuits],
            }
        )
        return reply["results"]

    def close(self) -> None:
        """Shut down the worker pool (if one was ever started)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    # ----------------------------------------------------- engine hooks

    def circuit_probabilities_batch(
        self, circuits: Sequence[Circuit], plan_for: PlanFor
    ) -> list[np.ndarray]:
        """Ideal probability rows, computed by a worker in one request.

        ``plan_for`` stays local and unused: the worker compiles its
        own plans.
        """
        rows = self._submit_batch("probs", list(circuits))
        return [np.asarray(row, dtype=float) for row in rows]

    def prepare_states(
        self, circuits: Sequence[Circuit], plan_for: PlanFor
    ) -> list[np.ndarray]:
        """Statevectors, computed by a worker in one request."""
        states = self._submit_batch("prepare", list(circuits))
        return [state_from_wire(state) for state in states]

    def __repr__(self) -> str:
        return (
            f"<RemoteBackend worker={self.spec.worker_backend!r} "
            f"transport={self.spec.transport!r} "
            f"workers={self.spec.workers}>"
        )


@register_backend("remote")
@dataclass(frozen=True)
class RemoteBackendSpec(BackendSpec):
    """Distributed evaluation over a pool of worker processes.

    Parameters
    ----------
    worker_backend:
        Which simulation strategy the workers run — ``"dense"``
        (default) or ``"clifford"``.  This is the kind folded into
        engine cache keys; results are bit-identical to running that
        kind locally.
    transport:
        ``"pipes"`` (default) forks ``workers`` local processes behind
        ``multiprocessing`` pipes; ``"socket"`` connects to the
        ``addresses`` of already-running ``repro dist-worker``
        processes.
    workers:
        Pool width for the ``pipes`` transport.
    addresses:
        ``host:port`` strings for the ``socket`` transport.
    max_retries:
        How many times a request may be resubmitted after worker
        deaths before the failure surfaces.

    Example
    -------
    >>> from repro.backends import make_backend
    >>> backend = make_backend({"kind": "remote", "workers": 2})
    >>> backend.backend_kind
    'dense'
    """

    worker_backend: str = "dense"
    transport: str = "pipes"
    workers: int = 2
    addresses: tuple[str, ...] = ()
    max_retries: int = 2

    def validate(self) -> None:
        """Eager checks: kinds, transport/address pairing, bounds."""
        check_choice(
            "worker_backend", self.worker_backend, WORKER_BACKEND_KINDS
        )
        check_choice("transport", self.transport, TRANSPORTS)
        check_int("workers", self.workers, minimum=1)
        check_int("max_retries", self.max_retries, minimum=0)
        if not isinstance(self.addresses, (tuple, list)) or any(
            not isinstance(a, str) for a in self.addresses
        ):
            raise ValueError(
                f"addresses must be a list of 'host:port' strings; "
                f"got {self.addresses!r}"
            )
        if self.transport == "socket" and not self.addresses:
            raise ValueError(
                "transport='socket' requires at least one address"
            )
        if self.transport == "pipes" and self.addresses:
            raise ValueError(
                "addresses are only meaningful with transport='socket'"
            )

    def create(
        self,
        device: DeviceModel | None = None,
        seed: int | None = None,
    ) -> RemoteBackend:
        """Build the live :class:`RemoteBackend`."""
        return RemoteBackend(device, seed=seed, spec=self)
