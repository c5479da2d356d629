"""repro.api — the typed, registry-driven experiment API.

The repository's one construction path for estimators:

* :class:`EstimatorSpec` — per-kind frozen dataclasses of plain JSON
  values that validate eagerly, round-trip through dicts, and carry a
  stable content fingerprint (:mod:`repro.api.spec`).
* :func:`register_estimator` — the self-registration decorator each
  estimator family applies to its spec class; the registry grows the
  addressable kinds from the legacy six to every family in the
  repository, and to out-of-tree estimators on import
  (:mod:`repro.api.registry`).
* :class:`Session` — owns device + backend + seed + one shared
  :class:`~repro.engine.ExecutionEngine` + ledger snapshots;
  ``session.estimator(spec, workload)`` builds any registered kind
  (:mod:`repro.api.session`).

Typical use::

    from repro import Session, make_workload, run_vqe
    from repro.api import make_spec

    workload = make_workload("H2-4")
    session = Session(workload.device, seed=7)

    spec = make_spec("selective", shots=512, mass_fraction=0.85,
                     global_mode="always")
    estimator = session.estimator(spec, workload)
    result = run_vqe(estimator, max_iterations=100, seed=7)

Sweep Points, the CLI, ZNE, the serve subsystem and the analysis
drivers all construct estimators through this package.
"""

from __future__ import annotations

from .registry import (
    estimator_kinds,
    make_spec,
    register_estimator,
    resolve_spec,
    spec_class,
    spec_from_dict,
)
from .session import LedgerSnapshot, Session
from .spec import EstimatorSpec, canonical_spec_json

__all__ = [
    "EstimatorSpec",
    "LedgerSnapshot",
    "Session",
    "canonical_spec_json",
    "estimator_kinds",
    "make_spec",
    "register_estimator",
    "resolve_spec",
    "spec_class",
    "spec_from_dict",
]
