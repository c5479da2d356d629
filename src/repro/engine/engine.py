"""The batched, caching circuit-execution engine.

Estimators no longer call the backend circuit-by-circuit.  They open a
:class:`Batch`, submit every execution of the current objective
evaluation as a spec, and receive :class:`JobHandle` futures; one
``run()`` then drives the whole batch through three phases:

1. **Dedup** — specs are grouped by content fingerprint (mixed with the
   backend's device/noise fingerprint); structurally identical circuits
   simulate once and fan their exact PMF out to every submitter.
2. **Simulate** — the bounded LRU memoization cache is consulted
   first; every miss becomes an ideal probability row, and the
   backend's noise finisher turns all rows into exact PMFs at once.
   Circuits that differ only in their measured qubits (a JigSaw Global
   and its subsets) share one ideal-probability evaluation, and all
   circuit bodies of a batch go to the backend's simulation hook in
   one call.  Simulation is deterministic, so caching cannot change
   any numeric result.
3. **Sample & charge** — in *submission order*, every job samples its
   own shots from its PMF and charges the backend ledger one circuit
   plus ``shots``, duplicates included.  The paper's cost metric
   therefore counts every submitted spec.

The engine is the only code that executes, samples and charges a
circuit.  A batch runs inline on the caller's thread and samples the
backend's single RNG stream in submission order, so on a static device
counts and the ledger match one-spec batches run back to back; on a
drifting device a batch sees one noise state (all its PMFs exist
before its first charge moves the clock).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..circuits import Circuit
from ..obs import REGISTRY as _METRICS
from ..obs import span as _obs_span
from ..sim import PMF, Counts
from ..sim.plan import CircuitPlan, compile_plan, structure_fingerprint
from .cache import CacheStats, LRUCache
from .config import EngineConfig
from .spec import (
    CircuitSpec,
    StateSpec,
    body_fingerprint,
    circuit_fingerprint,
    device_fingerprint,
    state_digest,
)

__all__ = ["ExecutionEngine", "Batch", "JobHandle", "EngineStats"]

# The engine's process-wide metrics: lifetime counters published into
# the default registry (the `GET /metrics` + BENCH_*.json surface).
# Incremented once per *batch*, never per job, so the hot path pays a
# handful of lock operations per objective evaluation.
_M_BATCHES = _METRICS.counter(
    "repro_engine_batches_total", "Engine batches executed"
)
_M_JOBS = _METRICS.counter(
    "repro_engine_jobs_total",
    "Jobs (circuit executions) charged through the engine",
)
_M_SHOTS = _METRICS.counter(
    "repro_engine_shots_total", "Shots sampled and charged"
)
_M_SIMULATIONS = _METRICS.counter(
    "repro_engine_simulations_total", "Unique PMF simulations run"
)
_M_CACHE_HITS = _METRICS.counter(
    "repro_engine_cache_hits_total", "PMF cache hits"
)
_M_COALESCED = _METRICS.counter(
    "repro_engine_dedup_coalesced_total",
    "Jobs coalesced onto an identical in-batch submission",
)
_M_PLAN_HITS = _METRICS.counter(
    "repro_engine_plan_cache_hits_total",
    "Compiled-plan cache hits (structure reused)",
)
_M_PLAN_MISSES = _METRICS.counter(
    "repro_engine_plan_cache_misses_total",
    "Compiled-plan cache misses (plan compiled)",
)
_M_BATCH_SECONDS = _METRICS.histogram(
    "repro_engine_batch_seconds", "Wall-clock seconds per engine batch"
)

#: Entries the state and plan caches keep unless ``cache_size=0``.
_MEMO_ENTRIES = 64
#: Auto byte-budget shape: room for this many full-width payloads
#: (``8 * 2**n_qubits`` bytes per PMF, ``16 * 2**n_qubits`` per state) ...
_AUTO_PMF_ENTRIES = 32
_AUTO_STATE_ENTRIES = 16
#: ... but never a budget smaller than this (narrow workloads stay
#: effectively entry-bounded).
_AUTO_FLOOR_BYTES = 16 * 2**20


@dataclass(frozen=True)
class EngineStats:
    """Lifetime counters for one engine instance.

    Snapshots subtract: ``engine.stats - before`` is the cost of one
    phase (a batch, a request, a tenant's job), with the nested cache
    stats subtracted field-wise.  This is the delta hook the serve
    subsystem charges per-tenant work through.
    """

    jobs_submitted: int
    batches_run: int
    simulations: int
    dedup_coalesced: int
    pmf_cache: CacheStats
    state_cache: CacheStats
    plan_cache: CacheStats

    def __sub__(self, other: "EngineStats") -> "EngineStats":
        return EngineStats(
            jobs_submitted=self.jobs_submitted - other.jobs_submitted,
            batches_run=self.batches_run - other.batches_run,
            simulations=self.simulations - other.simulations,
            dedup_coalesced=self.dedup_coalesced - other.dedup_coalesced,
            pmf_cache=self.pmf_cache - other.pmf_cache,
            state_cache=self.state_cache - other.state_cache,
            plan_cache=self.plan_cache - other.plan_cache,
        )


class JobHandle:
    """Future-style handle for one submitted spec.

    ``result()``/``pmf()`` become available once the owning batch has
    run; accessing them earlier raises.  After the run, :attr:`source`
    records where this job's PMF came from — ``"simulated"`` (a fresh
    simulation), ``"cache"`` (the engine's memoization cache), or
    ``"dedup"`` (coalesced onto an identical spec earlier in the same
    batch) — the per-job cache-hit attribution the trace spans
    aggregate.
    """

    __slots__ = ("spec", "index", "source", "_fingerprint", "_counts",
                 "_pmf")

    def __init__(self, spec, index: int):
        self.spec = spec
        self.index = index
        self.source: str | None = None
        self._fingerprint = spec.fingerprint()
        self._counts: Counts | None = None
        self._pmf: PMF | None = None

    def done(self) -> bool:
        """Whether the owning batch has executed this job."""
        return self._counts is not None

    def result(self) -> Counts:
        """Sampled counts for this spec (after the batch has run)."""
        if self._counts is None:
            raise RuntimeError("job has not been executed; run its batch")
        return self._counts

    def pmf(self) -> PMF:
        """The exact noisy PMF this job's counts were sampled from."""
        if self._pmf is None:
            raise RuntimeError("job has not been executed; run its batch")
        return self._pmf

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"<JobHandle #{self.index} {state}>"


class Batch:
    """An ordered set of specs executed together by one engine pass."""

    def __init__(self, engine: "ExecutionEngine"):
        self._engine = engine
        self._jobs: list[JobHandle] = []
        self._ran = False
        # Whole-iteration batches submit many specs over one prepared
        # state; hash each distinct array once.  Keyed by id(): safe
        # here because the specs keep their arrays alive for the
        # batch's lifetime.
        self._state_digests: dict[int, str] = {}

    def submit(self, spec) -> JobHandle:
        """Queue a :class:`CircuitSpec`/:class:`StateSpec`; get a handle."""
        if self._ran:
            raise RuntimeError("batch already ran; open a new one")
        handle = JobHandle(spec, self._engine._next_job_index())
        self._jobs.append(handle)
        return handle

    def submit_circuit(
        self, circuit: Circuit, shots: int, map_to_best: bool = False
    ) -> JobHandle:
        """Queue a full bound circuit (a :class:`CircuitSpec`)."""
        return self.submit(CircuitSpec(circuit, shots, map_to_best))

    def submit_state(
        self,
        state: np.ndarray,
        suffix: CircuitPlan | None,
        measured_qubits,
        shots: int,
        map_to_best: bool = False,
        gate_load: tuple[int, int] = (0, 0),
    ) -> JobHandle:
        """Queue a prepared state + basis suffix (a :class:`StateSpec`).

        ``suffix`` is a parameter-free compiled plan, built once by the
        caller with :func:`~repro.sim.plan.compile_plan`.
        """
        digest = self._state_digests.get(id(state))
        if digest is None:
            digest = state_digest(state)
            self._state_digests[id(state)] = digest
        return self.submit(
            StateSpec(
                state=state,
                suffix=suffix,
                measured_qubits=tuple(measured_qubits),
                shots=shots,
                map_to_best=map_to_best,
                gate_load=gate_load,
                digest=digest,
            )
        )

    def __len__(self) -> int:
        return len(self._jobs)

    def run(self) -> list[Counts]:
        """Execute all queued jobs; fill every handle; return its counts."""
        if self._ran:
            raise RuntimeError("batch already ran; open a new one")
        self._ran = True
        self._engine._execute(self._jobs)
        return [job.result() for job in self._jobs]


class ExecutionEngine:
    """Batched execution front-end for one :class:`SimulatorBackend`.

    Parameters
    ----------
    backend:
        The execution substrate.  The engine charges this backend's
        ``circuits_run``/``shots_run`` ledger per submitted spec and
        samples from its RNG stream.
    config:
        An :class:`~repro.engine.EngineConfig`; it never changes a result.
    """

    def __init__(self, backend, config: EngineConfig | None = None):
        self.backend = backend
        self.config = config if config is not None else EngineConfig()
        n_qubits = getattr(
            getattr(backend, "device", None), "n_qubits", 0
        )
        pmf_bytes = self.config.cache_bytes
        if pmf_bytes is None:
            pmf_bytes = max(
                _AUTO_FLOOR_BYTES, 8 * 2**n_qubits * _AUTO_PMF_ENTRIES
            )
        self._pmf_cache = LRUCache(self.config.cache_size, max_bytes=pmf_bytes)
        memo = _MEMO_ENTRIES if self.config.cache_size else 0
        # The state cache always takes the automatic byte budget.
        self._state_cache = LRUCache(
            memo,
            max_bytes=max(
                _AUTO_FLOOR_BYTES, 16 * 2**n_qubits * _AUTO_STATE_ENTRIES
            ),
        )
        # Compiled-plan cache for circuit bodies (ansatz states and
        # circuit specs), keyed by structure fingerprint; the backend's
        # simulation hooks reach it through _plan_for.
        self._plan_cache = LRUCache(memo)
        self._job_counter = 0
        self._batches_run = 0
        self._simulations = 0
        self._dedup_coalesced = 0

    # ------------------------------------------------------------ submission

    def new_batch(self) -> Batch:
        """Open an empty :class:`Batch` bound to this engine."""
        return Batch(self)

    def run_spec(self, spec) -> Counts:
        """Convenience: execute a single spec as its own batch."""
        batch = self.new_batch()
        handle = batch.submit(spec)
        batch.run()
        return handle.result()

    def _next_job_index(self) -> int:
        index = self._job_counter
        self._job_counter += 1
        return index

    # ------------------------------------------------------ state preparation

    def _plan_for(self, circuit: Circuit) -> CircuitPlan:
        """The compiled plan for ``circuit`` (plan cache).

        The ``plan_for`` the engine hands the backend's simulation
        hooks, keyed by :func:`structure_fingerprint`.  With
        ``cache_size=0`` every call compiles afresh and no plan is
        retained.
        """
        key = structure_fingerprint(circuit)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = compile_plan(circuit)
            self._plan_cache.put(key, plan)
            _M_PLAN_MISSES.inc()
        else:
            _M_PLAN_HITS.inc()
        return plan

    def prepare_state(self, circuit: Circuit) -> np.ndarray:
        """Memoized ansatz-state preparation (never charged, noise-free).

        Callers must treat the returned statevector as read-only — suffix
        evolution copies it first, so the cached array is never mutated
        downstream.
        """
        (state,) = self.prepare_states([circuit])
        return state

    def prepare_states(self, circuits) -> list[np.ndarray]:
        """Batched :meth:`prepare_state` over many bound circuits.

        State-cache misses go to the backend's ``prepare_states`` hook
        in one call; on dense backends, misses sharing one structure
        (SPSA's ``±ck·Δ`` perturbation pair, sweep points over one
        ansatz) advance through a single compiled-plan batch — one
        broadcast ``matmul`` per gate.  Every returned state is
        bit-identical to preparing its circuit alone.
        """
        results: list[np.ndarray | None] = [None] * len(circuits)
        misses: list[tuple[int, str]] = []
        for i, circuit in enumerate(circuits):
            key = circuit_fingerprint(circuit)
            state = self._state_cache.get(key)
            if state is None:
                misses.append((i, key))
            else:
                results[i] = state
        if misses:
            states = self.backend.prepare_states(
                [circuits[i] for i, _ in misses], self._plan_for
            )
            for (i, key), state in zip(misses, states):
                self._state_cache.put(key, state)
                results[i] = state
        return results

    # -------------------------------------------------------------- execution

    def _simulate(self, misses: list, device_fp: str) -> list:
        """Exact PMFs of a batch's cache misses: ``(key, pmf)`` pairs.

        Specs group by the body they evolve, and each body evolves
        once; every spec then contributes an ideal probability row with
        its own measured qubits, readout mapping and gate load.
        Circuit specs group by :func:`body_fingerprint` — a JigSaw
        Global and its subsets differ only in measured qubits — and one
        circuit per body goes to the backend's
        ``circuit_probabilities_batch`` hook, in a single call.  State
        specs group by (state ``digest``, suffix ``structure_key``), and
        the backend's ``state_rows`` evolves each such body once
        through the spec's own compiled suffix plan.  The noise
        finisher advances all rows at once, keyed by ``device_fp`` so
        it reuses its stages while the noise state holds.
        """
        backend = self.backend
        bodies: dict[str, list] = {}
        state_keys: list[tuple] = []
        state_bodies: dict[tuple, list[tuple[int, StateSpec]]] = {}
        for key, spec in misses:
            if isinstance(spec, CircuitSpec):
                bodies.setdefault(body_fingerprint(spec.circuit), []).append(
                    (key, spec)
                )
            else:
                state_bodies.setdefault(
                    (spec.digest, spec.suffix_key), []
                ).append((len(state_keys), spec))
                state_keys.append(key)
        keys, rows = [], []
        if bodies:
            groups = list(bodies.values())
            body_probs = backend.circuit_probabilities_batch(
                [group[0][1].circuit for group in groups], self._plan_for
            )
            for group, probs in zip(groups, body_probs):
                for key, spec in group:
                    circuit = spec.circuit
                    keys.append(key)
                    rows.append((
                        probs,
                        circuit.n_qubits,
                        tuple(sorted(circuit.measured_qubits)),
                        spec.map_to_best,
                        backend.noise_gate_load(circuit),
                    ))
        # State rows keep the batch's miss order (the PMF cache's
        # insertion order), whatever order their bodies evolve in.
        state_rows: list = [None] * len(state_keys)
        for group in state_bodies.values():
            first = group[0][1]
            body_rows = backend.state_rows(
                first.state,
                first.suffix,
                [(spec.measured_qubits, spec.map_to_best, spec.gate_load)
                 for _, spec in group],
            )
            for (position, _), row in zip(group, body_rows):
                state_rows[position] = row
        keys += state_keys
        rows += state_rows
        return list(zip(keys, backend.exact_pmfs_from_probs_batch(
            rows, device_fp
        )))

    def _execute(self, jobs: list[JobHandle]) -> None:
        if not jobs:
            return
        started = time.perf_counter()
        with _obs_span("engine.batch", jobs=len(jobs)) as batch_span:
            device_fp = device_fingerprint(self.backend)

            # Phase 1: dedup — group by content fingerprint, consult
            # the memoization cache, collect one simulation per miss.
            resolved: dict[tuple, PMF] = {}
            scheduled: set[tuple] = set()
            misses: list[tuple[tuple, object]] = []
            sources: list[str] = []
            with _obs_span("engine.dedup"):
                for job in jobs:
                    key = (device_fp, job._fingerprint)
                    if key in resolved or key in scheduled:
                        sources.append("dedup")
                        continue
                    cached = self._pmf_cache.get(key)
                    if cached is not None:
                        resolved[key] = cached
                        sources.append("cache")
                    else:
                        scheduled.add(key)
                        misses.append((key, job.spec))
                        sources.append("simulated")
            cache_hits = len(resolved)
            coalesced = len(jobs) - cache_hits - len(misses)

            # Phase 2: simulate every miss (see _simulate).  Batches,
            # simulations, job sources and PMF-cache entries are
            # committed only once every PMF exists, so a failing batch
            # leaves no trace in them.
            with _obs_span("engine.simulate", simulations=len(misses)):
                fresh = self._simulate(misses, device_fp) if misses else []
            for key, pmf in fresh:
                resolved[key] = pmf
                self._pmf_cache.put(key, pmf)
            self._batches_run += 1
            self._simulations += len(misses)
            self._dedup_coalesced += coalesced
            for job, source in zip(jobs, sources):
                job.source = source

            # Phase 3: sample and charge in submission order.
            shots_charged = 0
            rng = self.backend.rng
            with _obs_span("engine.sample"):
                for job in jobs:
                    pmf = resolved[(device_fp, job._fingerprint)]
                    counts = self.backend.sample(pmf, job.spec.shots, rng)
                    self.backend.charge(job.spec.shots)
                    shots_charged += job.spec.shots
                    job._pmf = pmf
                    job._counts = counts
            batch_span.set(
                cache_hits=cache_hits,
                coalesced=coalesced,
                simulations=len(misses),
                shots=shots_charged,
            )

        _M_BATCHES.inc()
        _M_JOBS.inc(len(jobs))
        _M_SHOTS.inc(shots_charged)
        _M_SIMULATIONS.inc(len(misses))
        _M_CACHE_HITS.inc(cache_hits)
        _M_COALESCED.inc(coalesced)
        _M_BATCH_SECONDS.observe(time.perf_counter() - started)

    # -------------------------------------------------------------- lifecycle

    @property
    def stats(self) -> EngineStats:
        """Lifetime execution counters (see :class:`EngineStats`)."""
        return EngineStats(
            jobs_submitted=self._job_counter,
            batches_run=self._batches_run,
            simulations=self._simulations,
            dedup_coalesced=self._dedup_coalesced,
            pmf_cache=self._pmf_cache.stats,
            state_cache=self._state_cache.stats,
            plan_cache=self._plan_cache.stats,
        )

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"<ExecutionEngine jobs={s.jobs_submitted} sims={s.simulations} "
            f"cache={s.pmf_cache.hits}/{s.pmf_cache.requests} hits>"
        )
