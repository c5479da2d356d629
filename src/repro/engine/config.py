"""Engine configuration.

One frozen record controls everything operational about an
:class:`~repro.engine.ExecutionEngine`: how large its PMF memoization
cache may grow, and whether it memoizes at all.  None of it changes a
result: every backend runs through the same batched hooks whatever the
configuration, and sampling always draws from the backend's single RNG
stream in submission order.
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
        Maximum memoized exact-PMF entries.  ``0`` memoizes nothing:
        no PMFs, no prepared statevectors and no compiled plans, so
        every plan lookup compiles afresh.  Any other value also keeps
        64 prepared statevectors (ansatz states reused across
        measurement bases and repeated parameters, bounded too by an
        automatic budget of 16 full-width states, ``16 * 2**n_qubits``
        bytes each, floored at 16 MiB) and 64 compiled circuit-body
        plans, keyed by structure so one plan serves every parameter
        binding.  The PMF entry cap is the *secondary* bound — the
        byte budget below is what keeps wide-workload caches from
        pinning gigabytes.
    cache_bytes:
        Approximate byte budget for the PMF cache.  ``None`` (default)
        scales the budget with the backend's device width: room for
        ``32`` full-width PMFs (``8 * 2**n_qubits`` bytes each), floored
        at 16 MiB so narrow workloads are effectively entry-bounded
        only.  ``0`` removes the byte bound; a positive value is an
        explicit budget.
    """

    cache_size: int = 256
    cache_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.cache_bytes is not None and self.cache_bytes < 0:
            raise ValueError("cache_bytes must be >= 0 or None (auto)")
