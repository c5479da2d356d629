"""repro.engine — batched, caching circuit execution.

Every estimator in the library routes its device executions through an
:class:`ExecutionEngine` instead of calling the backend one circuit at a
time.  The engine deduplicates structurally identical circuit specs
within a batch, memoizes exact noisy PMFs across iterations/trials in a
bounded LRU, and runs each batch's unique simulations inline, with all
of its circuit bodies going to the backend in one call — while
charging the backend's ``circuits_run``/``shots_run`` ledger per
*submitted* spec, so the paper's cost metric is untouched.

Typical use::

    from repro.engine import EngineConfig, ExecutionEngine
    from repro.sim import compile_plan

    engine = ExecutionEngine(backend, EngineConfig(cache_size=512))
    rotation = compile_plan(basis.basis_rotation())  # once, then reused
    state = engine.prepare_state(ansatz.bind(params))
    batch = engine.new_batch()
    handle = batch.submit_state(state, rotation, range(n), shots=512)
    batch.run()
    counts = handle.result()
    print(engine.stats.pmf_cache.hit_rate)

Estimators accept ``engine=`` as an :class:`ExecutionEngine`, an
:class:`EngineConfig`, or ``None``; see :func:`ensure_engine`.  ``None``
resolves to *one shared default engine per backend*, so several
estimators built over the same :class:`SimulatorBackend` pool their
PMF/state caches instead of each holding a private copy.  Both caches
are bounded by entry count *and* an approximate byte budget that scales
with the device width (see :class:`EngineConfig.cache_bytes`), closing
the old failure mode where 256 cached 20-qubit PMFs pinned GiBs.
``EngineConfig(cache_size=0)`` memoizes nothing — no PMFs, states or
compiled plans — and still runs every batch through the one batched
path.
"""

from __future__ import annotations

from .cache import CacheStats, LRUCache
from .config import EngineConfig
from .engine import Batch, EngineStats, ExecutionEngine, JobHandle
from .spec import (
    CircuitSpec,
    StateSpec,
    body_fingerprint,
    circuit_fingerprint,
    device_fingerprint,
)

__all__ = [
    "ExecutionEngine",
    "EngineConfig",
    "EngineStats",
    "Batch",
    "JobHandle",
    "CircuitSpec",
    "StateSpec",
    "LRUCache",
    "CacheStats",
    "body_fingerprint",
    "circuit_fingerprint",
    "device_fingerprint",
    "ensure_engine",
    "shared_engine",
]


def shared_engine(backend) -> ExecutionEngine:
    """The backend's lazily-created shared default engine.

    One engine (and therefore one PMF/state cache pair) per backend is
    the default sharing discipline: estimators that don't ask for a
    specific engine all pool their memoization.  Semantically
    invisible: caches never touch sampling randomness, which always
    comes from the backend's own RNG stream.
    """
    engine = getattr(backend, "_repro_shared_engine", None)
    if engine is None:
        engine = ExecutionEngine(backend)
        backend._repro_shared_engine = engine
    return engine


def ensure_engine(engine, backend) -> ExecutionEngine:
    """Coerce an ``engine=`` argument into an :class:`ExecutionEngine`.

    Accepts a ready engine (validated against ``backend``), an
    :class:`EngineConfig` (fresh private engine), or ``None`` for the
    backend's :func:`shared_engine`.
    """
    if engine is None:
        return shared_engine(backend)
    if isinstance(engine, EngineConfig):
        return ExecutionEngine(backend, engine)
    if isinstance(engine, ExecutionEngine):
        if engine.backend is not backend:
            raise ValueError(
                "engine is bound to a different backend than the estimator"
            )
        return engine
    raise TypeError(
        f"engine must be an ExecutionEngine, EngineConfig, or None; "
        f"got {type(engine).__name__}"
    )
