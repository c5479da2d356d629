"""Job descriptions: one estimation/tuning request as plain JSON.

A :class:`JobSpec` is the serve-subsystem analogue of a sweep
:class:`~repro.sweeps.Point`: everything needed to reproduce one
estimation written entirely in JSON-serializable values, so a job can
be fingerprinted, journaled, transported over HTTP, and re-materialized
later.  Two tenants submitting byte-equal work produce byte-equal
fingerprints — the content-addressing the coalescer's cross-tenant
dedup rides on.

Two job kinds exist today:

* ``estimate`` — one energy estimate of a workload's Hamiltonian at
  fixed ansatz parameters (the service's bread-and-butter request;
  ``params=None`` means the all-zeros vector).
* ``tuning`` — a full VQE tuning run (SPSA, deterministic per-seed),
  the expensive batch request.

:func:`execute_job` runs either kind against a live
:class:`~repro.api.Session` — the session (and therefore the engine
and its content-addressed caches) is *shared* across jobs by the
coalescer, which is where cross-tenant circuit dedup happens.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

import numpy as np

from ..sweeps.spec import WORKLOAD_KINDS, canonical_json

__all__ = ["JOB_SCHEMA_VERSION", "JOB_KINDS", "JobSpec", "execute_job"]

#: Bumped whenever a JobSpec field changes meaning; part of every job
#: fingerprint, so journals never silently mix incompatible schemas.
JOB_SCHEMA_VERSION = 1

#: The request shapes the service executes.
JOB_KINDS = ("estimate", "tuning")


@dataclass(frozen=True)
class JobSpec:
    """One estimation request, fully described in JSON values.

    Parameters
    ----------
    workload:
        A workload description naming exactly one of
        :data:`~repro.sweeps.spec.WORKLOAD_KINDS` plus constructor
        kwargs — the same discriminated mapping sweep points use, e.g.
        ``{"key": "H2-4"}`` or ``{"qaoa": "ring", "n_qubits": 6}``.
    kind:
        ``"estimate"`` (energy at fixed parameters) or ``"tuning"``
        (a full VQE tuning run).
    scheme:
        Estimator kind (see ``repro kinds``); the ``estimator`` payload
        may instead carry an inline ``"kind"``, which wins.
    params:
        Ansatz parameters for ``estimate`` jobs (JSON list of floats);
        ``None`` means the all-zeros vector.  Ignored by ``tuning``.
    shots / seed:
        Measurement shots per circuit and the trial seed.  The seed
        keys the shared session the job executes on, so jobs sharing a
        seed (and device/backend) share one engine and its caches.
    device:
        ``{"preset": <DEVICE_PRESETS name>, "scale": <noise scale>}``;
        ``None`` uses the workload's default device.
    backend:
        Execution-backend kind/payload from the :mod:`repro.backends`
        registry (``None`` = ``dense``), validated eagerly.
    estimator:
        Typed estimator parameters, validated eagerly against the
        scheme's registered :class:`~repro.api.EstimatorSpec`.
    max_iterations / circuit_budget:
        Tuning-run bounds (``tuning`` jobs only).
    """

    workload: Mapping[str, Any] = field(default_factory=dict)
    kind: str = "estimate"
    scheme: str = "varsaw"
    params: tuple | None = None
    shots: int = 256
    seed: int = 0
    device: Mapping[str, Any] | None = None
    backend: str | Mapping[str, Any] | None = None
    estimator: Mapping[str, Any] = field(default_factory=dict)
    max_iterations: int = 100
    circuit_budget: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"job kind must be one of {JOB_KINDS}; got {self.kind!r}"
            )
        workload = dict(self.workload)
        kinds = [k for k in WORKLOAD_KINDS if k in workload]
        if len(kinds) != 1:
            raise ValueError(
                f"a job's workload must name exactly one of "
                f"{WORKLOAD_KINDS}; got {workload!r}"
            )
        inline_kind = dict(self.estimator).get("kind")
        if not (
            (self.scheme and isinstance(self.scheme, str))
            or (inline_kind and isinstance(inline_kind, str))
        ):
            raise ValueError(
                "scheme must be a non-empty string (or the estimator "
                "payload must carry a 'kind')"
            )
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.circuit_budget is not None and self.circuit_budget < 1:
            raise ValueError("circuit_budget must be positive or None")
        if self.params is not None:
            params = tuple(float(v) for v in self.params)
            object.__setattr__(self, "params", params)
        object.__setattr__(self, "workload", workload)
        if self.device is not None:
            object.__setattr__(self, "device", dict(self.device))
        if isinstance(self.backend, Mapping):
            object.__setattr__(self, "backend", dict(self.backend))
        object.__setattr__(self, "estimator", dict(self.estimator))
        self._validate_estimator_payload()
        self._validate_backend()
        self._validate_device()

    def _validate_estimator_payload(self) -> None:
        """Fail misspelled estimator knobs at submission, not mid-batch."""
        from ..api import make_spec

        kind, params = self.estimator_args()
        make_spec(kind, **params)

    def _validate_backend(self) -> None:
        """Fail unknown backend kinds/knobs at submission, not mid-batch."""
        if self.backend is None:
            return
        from ..backends import resolve_backend_spec

        resolve_backend_spec(self.backend)

    def _validate_device(self) -> None:
        """Fail unknown presets/device kwargs at submission, not mid-batch.

        Dry-runs the preset factory so a malformed device is rejected
        with a 400 at the front door instead of failing (and being
        journaled, then replayed on every restart) inside a batch.
        """
        if self.device is None:
            return
        if "preset" not in self.device:
            raise ValueError("device must be {'preset': ..., 'scale': ...}")
        from ..sweeps.runner import materialize_device

        try:
            materialize_device(self.device)
        except TypeError as exc:
            raise ValueError(
                f"bad device {dict(self.device)!r}: {exc}"
            ) from exc

    def estimator_args(self) -> tuple[str, dict]:
        """``(kind, extra spec params)`` — inline payload kind wins."""
        payload = dict(self.estimator)
        kind = payload.pop("kind", None) or self.scheme
        return kind, payload

    def to_dict(self) -> dict:
        """JSON form of the job (what journals and HTTP bodies hold)."""
        data = asdict(self)
        if data["params"] is not None:
            data["params"] = list(data["params"])
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Rebuild a job from :meth:`to_dict` output."""
        return cls(**data)

    def fingerprint(self) -> str:
        """Content digest of this job (stable across processes).

        Byte-equal jobs from *different tenants* share a fingerprint —
        deliberately: the fingerprint is the dedup key, and tenancy is
        request metadata, not job content.
        """
        payload = {"v": JOB_SCHEMA_VERSION, "job": self.to_dict()}
        h = hashlib.blake2b(digest_size=16)
        h.update(canonical_json(payload).encode())
        return h.hexdigest()

    def session_key(self) -> str:
        """Which shared session this job executes on.

        Jobs agreeing on device, seed, and execution backend share one
        :class:`~repro.api.Session` — one engine, one PMF cache — so
        identical circuits across them (and across tenants) simulate
        once.  The workload is part of the key only when the job relies
        on the workload's *default* device, since that device differs
        per workload.
        """
        device = self.device
        if device is None:
            device = {"workload_default": dict(self.workload)}
        return canonical_json(
            {"device": device, "seed": self.seed, "backend": self.backend}
        )

    def label(self) -> str:
        """Short human-readable label for status output."""
        name = "?"
        for key in WORKLOAD_KINDS:
            if key in self.workload:
                name = str(self.workload[key])
                break
        scheme, _ = self.estimator_args()
        return f"{name} {self.kind} {scheme} seed={self.seed}"


def execute_job(job: JobSpec, session, workload_cache: dict) -> dict:
    """Run one job on a (shared) session; return its JSON result.

    Deterministic given the session state: estimation is exact-PMF
    simulation plus seeded sampling, so a job's numbers depend only on
    the session's RNG position — which the coalescer advances in
    submission order, exactly like the engine's shared-RNG batches.
    """
    from ..sweeps.runner import materialize_workload

    cache_key = canonical_json(job.workload)
    workload = workload_cache.get(cache_key)
    if workload is None:
        workload = materialize_workload(job.workload)
        workload_cache[cache_key] = workload

    scheme, extra = job.estimator_args()
    if job.kind == "estimate":
        estimator = session.estimator(
            scheme, workload, shots=job.shots, **extra
        )
        if job.params is not None:
            params = np.array(job.params, dtype=float)
        else:
            params = np.zeros(workload.ansatz.num_parameters)
        energy = float(estimator.evaluate(params))
        return {
            "kind": "estimate",
            "energy": energy,
            "error": abs(energy - workload.ideal_energy),
        }

    from ..sweeps.runner import execute_tuning

    run = execute_tuning(
        scheme,
        workload,
        max_iterations=job.max_iterations,
        circuit_budget=job.circuit_budget,
        shots=job.shots,
        seed=job.seed,
        backend=session.backend,
        engine=session.engine,
        **extra,
    )
    return {
        "kind": "tuning",
        "energy": float(run.energy),
        "error": abs(float(run.energy) - workload.ideal_energy),
        "iterations": int(run.iterations),
        "global_fraction": run.global_fraction,
    }
