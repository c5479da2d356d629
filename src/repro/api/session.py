"""Session: one owner for device + backend + seed + engine + ledger.

Every experiment in the repository needs the same four objects wired
the same way: a :class:`~repro.noise.DeviceModel`, a deterministically
seeded :class:`~repro.noise.SimulatorBackend` over it, one (shared)
:class:`~repro.engine.ExecutionEngine`, and the backend's circuit/shot
cost ledger.  :class:`Session` packages that wiring, and
:meth:`Session.estimator` is the single construction path from an
:class:`~repro.api.EstimatorSpec` (or kind name, or payload dict) plus
a workload to a live estimator::

    from repro import Session, make_workload, run_vqe

    workload = make_workload("H2-4")
    session = Session(workload.device, seed=7)
    estimator = session.estimator("varsaw", workload, shots=512)
    result = run_vqe(estimator, max_iterations=100, seed=7)
    print(session.ledger())        # circuits/shots/simulations so far

Sessions are deliberately cheap: experiments that average over trials
construct one session per trial seed, exactly as they used to construct
one backend per trial seed.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..engine import EngineConfig, ExecutionEngine, ensure_engine
from ..noise import DEVICE_PRESETS, DeviceModel, SimulatorBackend
from .registry import resolve_spec
from .spec import EstimatorSpec

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle)
    from ..backends import BackendSpec

__all__ = ["LedgerSnapshot", "Session"]


@dataclass(frozen=True)
class LedgerSnapshot:
    """Point-in-time execution costs of one session.

    ``circuits``/``shots`` read the backend's cost ledger (what the
    paper's budget experiments charge); the rest read the engine's
    execution statistics.  Snapshots subtract, so the cost of one
    phase is ``session.ledger() - before``.
    """

    circuits: int
    shots: int
    simulations: int
    cache_hits: int
    cache_requests: int

    def __sub__(self, other: LedgerSnapshot) -> LedgerSnapshot:
        return LedgerSnapshot(
            circuits=self.circuits - other.circuits,
            shots=self.shots - other.shots,
            simulations=self.simulations - other.simulations,
            cache_hits=self.cache_hits - other.cache_hits,
            cache_requests=self.cache_requests - other.cache_requests,
        )


class Session:
    """Owns one backend + engine pair; builds estimators from specs.

    Parameters
    ----------
    device:
        A :class:`~repro.noise.DeviceModel`, a
        :data:`~repro.noise.DEVICE_PRESETS` name, or ``None`` for the
        ideal (noise-free) device.
    seed:
        Backend sampling seed — the per-trial determinism discipline;
        one session per trial seed.
    noise_scale:
        Optional noise amplification applied to ``device`` (the ZNE /
        Section 5.1 ``with_noise_scale`` knob).
    engine:
        A ready :class:`~repro.engine.ExecutionEngine`, an
        :class:`~repro.engine.EngineConfig` for a fresh private engine,
        or ``None`` for the backend's shared default engine (estimators
        on one backend then pool their PMF/state caches).
    backend:
        Which execution backend to construct over ``device``/``seed``:
        a registered kind name (``"dense"``, ``"clifford"``,
        ``"density"``, see :func:`repro.backends.backend_kinds`), a
        :class:`~repro.backends.BackendSpec`, or a payload dict with a
        ``'kind'`` key.  ``None`` (the default) builds the ``dense``
        backend — bit-identical to the pre-registry behavior.
        Alternatively a ready live backend to adopt as-is (then
        mutually exclusive with ``device`` / ``seed`` /
        ``noise_scale``).  :meth:`close` closes a backend the session
        built, never an adopted one: whoever builds a backend closes
        it.
    """

    def __init__(
        self,
        device: DeviceModel | str | None = None,
        *,
        seed: int | None = None,
        noise_scale: float | None = None,
        engine: ExecutionEngine | EngineConfig | None = None,
        backend: (
            "SimulatorBackend | BackendSpec | str | Mapping[str, Any] "
            "| None"
        ) = None,
    ):
        from ..backends import BackendSpec, make_backend

        declarative = backend is None or isinstance(
            backend, (str, Mapping, BackendSpec)
        )
        if not declarative:
            if not isinstance(backend, SimulatorBackend):
                raise TypeError(
                    f"backend must be a registered kind name, a "
                    f"BackendSpec, a payload dict, a live "
                    f"SimulatorBackend, or None; "
                    f"got {type(backend).__name__}"
                )
            if device is not None or noise_scale is not None or (
                seed is not None
            ):
                raise ValueError(
                    "pass either backend=<live backend> or "
                    "device=/seed=/noise_scale=, not both (a backend "
                    "*kind* composes with them; a ready backend object "
                    "already owns its device and seed)"
                )
            self.backend = backend
        else:
            if isinstance(device, str):
                if device not in DEVICE_PRESETS:
                    raise ValueError(
                        f"unknown device preset {device!r}; "
                        f"choose from {sorted(DEVICE_PRESETS)}"
                    )
                device = DEVICE_PRESETS[device]()
            if noise_scale is not None:
                if device is None:
                    raise ValueError(
                        "noise_scale needs a device to scale"
                    )
                device = device.with_noise_scale(noise_scale)
            self.backend = make_backend(backend, device, seed=seed)
        self._owns_backend = declarative
        self.engine = ensure_engine(engine, self.backend)

    # ------------------------------------------------------- properties

    @property
    def device(self) -> DeviceModel:
        """The backend's device model."""
        return self.backend.device

    @property
    def seed(self) -> int | None:
        """The backend's sampling seed (``None`` if unseeded)."""
        return self.backend.seed

    @property
    def backend_kind(self) -> str:
        """The registry kind of this session's execution backend."""
        return getattr(self.backend, "backend_kind", "dense")

    # ----------------------------------------------------- construction

    def spec(
        self,
        spec: EstimatorSpec | str | Mapping[str, Any],
        *,
        shots: int | None = None,
        window: int | None = None,
        **params: Any,
    ) -> EstimatorSpec:
        """Resolve any spec spelling into a validated spec.

        ``spec`` may be a ready :class:`EstimatorSpec`, a registered
        kind name, or a payload dict with a ``'kind'`` key.  ``shots``
        and ``window`` are *soft* defaults, mirroring the legacy
        factory's named arguments: applied only when the kind accepts
        the field and the spec does not already pin it (so passing
        ``shots=...`` alongside kind ``"ideal"`` stays a no-op instead
        of an error, and a payload's own ``shots`` wins).  A ready
        :class:`EstimatorSpec` is a complete description — soft
        defaults never alter it; use :meth:`EstimatorSpec.replace` to
        change its fields.  Everything in ``params`` is strict —
        unknown keys raise with the kind's accepted fields.
        """
        return resolve_spec(
            spec, soft={"shots": shots, "window": window}, **params
        )

    def estimator(
        self,
        spec: EstimatorSpec | str | Mapping[str, Any],
        workload: Any,
        *,
        shots: int | None = None,
        window: int | None = None,
        **params: Any,
    ) -> Any:
        """Build the live estimator ``spec`` describes for ``workload``.

        The single construction path: the spec is resolved and
        validated (see :meth:`spec`), then built against this session's
        backend and engine.
        """
        resolved = self.spec(spec, shots=shots, window=window, **params)
        return resolved.build(workload, self.backend, engine=self.engine)

    # ----------------------------------------------------------- ledger

    def ledger(self) -> LedgerSnapshot:
        """Snapshot the session's execution costs so far."""
        stats = self.engine.stats
        return LedgerSnapshot(
            circuits=self.backend.circuits_run,
            shots=self.backend.shots_run,
            simulations=stats.simulations,
            cache_hits=stats.pmf_cache.hits,
            cache_requests=stats.pmf_cache.requests,
        )

    def stats(self):
        """The engine's execution statistics, as a frozen snapshot.

        Returns the shared engine's :class:`~repro.engine.EngineStats`:
        cache hit/miss/eviction counters, simulation counts, and the
        content-addressed dedup counter.  Snapshots subtract
        (``session.stats() - before``), mirroring :meth:`ledger` — the
        observability surface the serve subsystem's status output
        aggregates across sessions.
        """
        return self.engine.stats

    # -------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Close the backend if this session built it (idempotent).

        Releases a ``remote`` backend's worker processes; an adopted
        live backend stays open for its owner.  The ledger and stats
        stay readable afterwards.
        """
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<Session device={self.device.name!r} seed={self.seed!r} "
            f"circuits={self.backend.circuits_run}>"
        )
