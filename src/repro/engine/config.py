"""Engine configuration.

One frozen record controls everything operational about an
:class:`~repro.engine.ExecutionEngine`: how large the PMF/state
memoization caches and the compiled-plan cache may grow.  None of it
changes a result: every backend runs through the same batched hooks
whatever the configuration, and sampling always draws from the
backend's single RNG stream in submission order.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Operational knobs for an :class:`~repro.engine.ExecutionEngine`.

    Parameters
    ----------
    cache_size:
        Maximum memoized exact-PMF entries; ``0`` disables the cache.
        This entry cap is the *secondary* bound — the byte budget below
        is what keeps wide-workload caches from pinning gigabytes.
    state_cache_size:
        Maximum memoized prepared-statevector entries (ansatz states
        reused across measurement bases and repeated parameters);
        ``0`` disables.
    cache_bytes:
        Approximate byte budget for the PMF cache.  ``None`` (default)
        scales the budget with the backend's device width: room for
        ``32`` full-width PMFs (``8 * 2**n_qubits`` bytes each), floored
        at 16 MiB so narrow workloads are effectively entry-bounded
        only.  ``0`` removes the byte bound; a positive value is an
        explicit budget.
    state_cache_bytes:
        Same, for the statevector cache (``16 * 2**n_qubits`` bytes per
        entry, auto budget of 16 entries, same 16 MiB floor).
    plan_cache_size:
        Maximum compiled :class:`~repro.sim.plan.CircuitPlan` entries,
        keyed by circuit *structure* fingerprint (one plan serves every
        parameter binding of a structure).  ``0`` retains no plan:
        every lookup compiles afresh, and prepared-state specs run
        through the backend's ``pmf_from_state`` one at a time instead
        of through cached suffix plans — what the throughput
        benchmark's "direct" row measures.
    """

    cache_size: int = 256
    state_cache_size: int = 64
    plan_cache_size: int = 64
    cache_bytes: int | None = None
    state_cache_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.state_cache_size < 0:
            raise ValueError("state_cache_size must be >= 0")
        if self.plan_cache_size < 0:
            raise ValueError("plan_cache_size must be >= 0")
        for name in ("cache_bytes", "state_cache_bytes"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0 or None (auto)")
