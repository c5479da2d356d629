"""Engine configuration.

One frozen record controls everything operational about an
:class:`~repro.engine.ExecutionEngine`: how many simulation workers run
concurrently, how large the PMF/state memoization caches and the
compiled-plan cache may grow, and which RNG discipline sampling
follows.  None of it selects a code path: every backend runs through
the same batched hooks whatever the configuration.

The two RNG modes trade compatibility against scheduling freedom:

* ``"shared"`` (default) — every job samples from the backend's single
  RNG stream *in submission order*.  Because PMF simulation itself
  consumes no randomness, this reproduces the pre-engine serial
  semantics bit for bit (same counts, same energies, same ledger) no
  matter how many workers simulated the PMFs.
* ``"per_job"`` — each job samples from its own child RNG spawned
  deterministically from the backend seed and the job's global sequence
  number.  Each job's result then depends only on its position in the
  submission sequence, never on worker scheduling — the discipline a
  distributed deployment needs; the stream differs from the legacy
  serial one.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EngineConfig", "RNG_MODES"]

#: Supported sampling disciplines (see module docstring).
RNG_MODES = ("shared", "per_job")


@dataclass(frozen=True)
class EngineConfig:
    """Operational knobs for an :class:`~repro.engine.ExecutionEngine`.

    Parameters
    ----------
    workers:
        Concurrent prepared-state simulations.  ``1`` runs inline on
        the caller's thread (no pool); higher values use a thread pool
        — the dense kernels release the GIL inside NumPy, so threads
        scale on multi-core hosts without pickling circuits.  A batch's
        circuit bodies go to the backend in one hook call, alongside
        the pool.
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
    rng_mode:
        ``"shared"`` or ``"per_job"`` — see the module docstring.
    """

    workers: int = 1
    cache_size: int = 256
    state_cache_size: int = 64
    plan_cache_size: int = 64
    cache_bytes: int | None = None
    state_cache_bytes: int | None = None
    rng_mode: str = "shared"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
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
        if self.rng_mode not in RNG_MODES:
            raise ValueError(
                f"rng_mode must be one of {RNG_MODES}, got {self.rng_mode!r}"
            )
