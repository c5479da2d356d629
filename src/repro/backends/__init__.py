"""repro.backends — the pluggable simulation-backend registry.

Every estimator in the library executes circuits through *one* backend
object (historically always :class:`repro.noise.SimulatorBackend`).
This package makes that seam pluggable with the same registry the
:mod:`repro.api` estimators use: each backend kind is a frozen,
validated, serializable :class:`BackendSpec` that claims a name in
:data:`BACKENDS` with :func:`register_backend`, and every layer —
`Session`, sweep Points, the CLI — selects backends by that name.

Built-in kinds:

* ``dense`` — the default statevector simulator, bit-identical to the
  pre-registry :class:`~repro.noise.SimulatorBackend`.
* ``clifford`` — a stabilizer-tableau fast path that dispatches
  automatically for Clifford-only circuits and falls back to dense
  otherwise (:class:`CliffordBackend`).
* ``density`` — exact density-matrix evaluation with local per-gate
  noise channels and analytic (zero-shot-noise) expectations
  (:class:`DensityBackend`).
* ``remote`` — dense simulation on worker processes
  (:mod:`repro.dist.remote`).

Typical use::

    from repro import Session
    from repro.engine import CircuitSpec

    session = Session("ibmq_mumbai_like", seed=7, backend="clifford")
    counts = session.engine.run_spec(CircuitSpec(ghz_circuit, shots=512))

    from repro.backends import backend_kinds, make_backend

    print(backend_kinds())  # ('dense', 'clifford', 'density', 'remote')
    backend = make_backend({"kind": "density", "analytic": True})

Out-of-tree backends subclass :class:`~repro.noise.SimulatorBackend`
(overriding the ``circuit_probabilities_batch``/``sample`` hooks) and
register a spec; see ``docs/backends.md`` for the end-to-end recipe.
"""

from __future__ import annotations

from .clifford import CliffordBackend, CliffordBackendSpec
from .dense import DenseBackendSpec
from .density import DensityBackend, DensityBackendSpec
from .registry import (
    BACKENDS,
    backend_class,
    backend_kinds,
    backend_spec_from_dict,
    make_backend,
    make_backend_spec,
    register_backend,
    resolve_backend_spec,
)
from .spec import BackendSpec

__all__ = [
    "BACKENDS",
    "BackendSpec",
    "CliffordBackend",
    "CliffordBackendSpec",
    "DenseBackendSpec",
    "DensityBackend",
    "DensityBackendSpec",
    "backend_class",
    "backend_kinds",
    "backend_spec_from_dict",
    "make_backend",
    "make_backend_spec",
    "register_backend",
    "resolve_backend_spec",
]
