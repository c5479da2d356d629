"""Batching pending requests from many tenants into shared execution.

The coalescer is where the paper's shared-cost idea lifts to the fleet
level.  VarSaw amortizes measurement circuits *within* one workload
(spatial subset dedup, sparse Global reuse); the coalescer amortizes
them *across tenants*:

* **Job-level dedup** — requests are grouped by job content
  fingerprint.  Within a batch, only the first submission of a
  fingerprint executes; every other submitter — same tenant or not —
  receives the same result record.  Across batches (and server
  restarts) the :class:`~repro.serve.queue.ResultsDB` plays the same
  role.
* **Circuit-level dedup** — jobs agreeing on device/seed/backend share
  one :class:`~repro.api.Session`, hence one
  :class:`~repro.engine.ExecutionEngine` and its content-addressed PMF
  cache, so two *different* jobs over the same circuits (two tenants
  tuning the same Hamiltonian at overlapping parameters) simulate each
  circuit once.

Cost attribution follows execution: the first submitter of a job pays
its full ledger delta (snapshot subtraction around the run); coalesced
submitters pay nothing.  ``cross_tenant_dedup`` counts exactly the
requests served by another tenant's execution — the number the
throughput benchmark pins to prove the amortization is real.

Executions within a batch are strictly serial and in submission order,
so ledger deltas attribute exactly and results are deterministic for a
deterministic submission order (the engine's shared-RNG discipline).
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from .. import obs
from .budget import TenantBudget
from .jobs import JobSpec, execute_job
from .queue import ResultsDB

__all__ = ["Request", "CoalescerStats", "Coalescer"]


@dataclass
class Request:
    """One accepted submission awaiting (or holding) its result.

    ``job`` is ``None`` only for journaled submissions that no longer
    validate on recovery (written by an older client); such requests
    are recovered pre-failed and never reach the coalescer.
    """

    request_id: str
    tenant: str
    job: JobSpec | None
    fingerprint: str
    future: Future = field(default_factory=Future)
    #: Monotonic admission time — queue-wait attribution for metrics
    #: and the ``serve.request`` trace span.
    submitted_at: float = field(default_factory=time.perf_counter)

    def state(self) -> str:
        """``pending`` / ``complete`` / ``failed`` for status output."""
        if not self.future.done():
            return "pending"
        return "failed" if self.future.exception() else "complete"

    def label(self) -> str:
        """Human-readable job label for status/listing output."""
        return self.job.label() if self.job is not None else "<invalid job>"


@dataclass(frozen=True)
class CoalescerStats:
    """Lifetime counters for one coalescer."""

    batches: int
    executed: int
    coalesced: int
    served_from_db: int
    cross_tenant_dedup: int
    sessions: int


class Coalescer:
    """Executes request batches through shared, deduplicating sessions.

    Parameters
    ----------
    results:
        The durable results DB; executed jobs are checkpointed here
        *before* their futures resolve, so an acknowledged result is
        never recomputed after a crash.
    budget:
        The tenant-budget ledger charged per execution.
    """

    def __init__(self, results: ResultsDB, budget: TenantBudget):
        from ..api import Session

        self._session_cls = Session
        self._results = results
        self._budget = budget
        self._sessions: dict[str, object] = {}
        self._workloads: dict[str, object] = {}
        self._batches = 0
        self._executed = 0
        self._coalesced = 0
        self._served_from_db = 0
        self._cross_tenant = 0

    # ---------------------------------------------------------- sessions

    def session_for(self, job: JobSpec):
        """The shared session for a job's (device, seed, backend) key."""
        key = job.session_key()
        session = self._sessions.get(key)
        if session is None:
            from ..sweeps.runner import (
                materialize_device,
                materialize_workload,
            )
            from ..sweeps.spec import canonical_json

            device = materialize_device(job.device)
            if device is None:
                cache_key = canonical_json(job.workload)
                workload = self._workloads.get(cache_key)
                if workload is None:
                    workload = materialize_workload(job.workload)
                    self._workloads[cache_key] = workload
                device = workload.device
            session = self._session_cls(
                device, seed=job.seed, backend=job.backend
            )
            self._sessions[key] = session
        return session

    def sessions(self) -> list:
        """Every live shared session (for stats aggregation)."""
        return list(self._sessions.values())

    # ----------------------------------------------------------- serving

    def _resolve(
        self,
        request: Request,
        record: dict,
        path: str = "executed",
        queue_wait_s: float = 0.0,
    ) -> None:
        """Fulfil one request from a result record (dedup accounting)."""
        if request.tenant != record["tenant"]:
            self._cross_tenant += 1
        obs.record(
            "serve.request",
            time.perf_counter() - request.submitted_at,
            tenant=request.tenant,
            fingerprint=request.fingerprint,
            path=path,
            state="complete",
            queue_wait_s=queue_wait_s,
        )
        request.future.set_result(record)

    def serve_from_db(self, request: Request) -> bool:
        """Resolve a request straight from the results DB if present."""
        record = self._results.get(request.fingerprint)
        if record is None:
            return False
        self._served_from_db += 1
        self._resolve(request, record, path="db")
        return True

    def execute_batch(self, requests: list[Request]) -> int:
        """Run one shared batch; resolve every request; return executions.

        Requests are grouped by job fingerprint in submission order;
        each group's *first* submitter executes (and is charged), the
        rest coalesce.  Groups whose fingerprint is already in the
        results DB resolve without executing at all — the path a
        restarted server takes for every pre-crash job.
        """
        if not requests:
            return 0
        self._batches += 1
        groups: dict[str, list[Request]] = {}
        for request in requests:
            groups.setdefault(request.fingerprint, []).append(request)

        executed = 0
        batch_started = time.perf_counter()

        def wait(request: Request) -> float:
            return batch_started - request.submitted_at

        with obs.span(
            "serve.batch", requests=len(requests), groups=len(groups)
        ) as batch_span:
            for fingerprint, group in groups.items():
                record = self._results.get(fingerprint)
                if record is not None:
                    self._served_from_db += len(group)
                    for request in group:
                        self._resolve(
                            request, record, path="db",
                            queue_wait_s=wait(request),
                        )
                    continue

                leader, followers = group[0], group[1:]
                start = time.perf_counter()
                try:
                    # Session construction is inside the try: a job
                    # whose device/backend cannot materialize must fail
                    # its own futures, not escape and kill the batching
                    # worker.
                    session = self.session_for(leader.job)
                    before = session.ledger()
                    result = execute_job(
                        leader.job, session, self._workloads
                    )
                except Exception as exc:  # noqa: BLE001 - isolate bad jobs
                    # A failed job is *not* journaled: the request fails
                    # loudly now and the job re-executes if resubmitted.
                    for request in group:
                        obs.record(
                            "serve.request",
                            time.perf_counter() - request.submitted_at,
                            tenant=request.tenant,
                            fingerprint=request.fingerprint,
                            path="executed",
                            state="failed",
                        )
                        request.future.set_exception(exc)
                    continue
                wall = time.perf_counter() - start
                obs.record(
                    "serve.execute",
                    wall,
                    fingerprint=fingerprint,
                    tenant=leader.tenant,
                    requests=len(group),
                )
                delta = session.ledger() - before
                record = self._results.complete(
                    fingerprint,
                    leader.job,
                    leader.tenant,
                    result,
                    {"circuits": delta.circuits, "shots": delta.shots},
                    wall,
                )
                self._budget.charge(
                    leader.tenant, delta.circuits, delta.shots
                )
                executed += 1
                self._executed += 1
                self._coalesced += len(followers)
                self._resolve(
                    leader, record, path="executed",
                    queue_wait_s=wait(leader),
                )
                for request in followers:
                    self._resolve(
                        request, record, path="coalesced",
                        queue_wait_s=wait(request),
                    )
            batch_span.set(executed=executed)
        return executed

    # ------------------------------------------------------------- stats

    @property
    def stats(self) -> CoalescerStats:
        """Lifetime dedup/batch counters (see :class:`CoalescerStats`)."""
        return CoalescerStats(
            batches=self._batches,
            executed=self._executed,
            coalesced=self._coalesced,
            served_from_db=self._served_from_db,
            cross_tenant_dedup=self._cross_tenant,
            sessions=len(self._sessions),
        )

    def engine_totals(self) -> dict:
        """Summed engine/ledger counters across every shared session.

        The ``circuits``/``shots`` totals here are the reference the
        per-tenant budget charges must sum to — asserted by the
        concurrency suite and printed by ``repro serve`` status.
        """
        totals = {
            "circuits": 0,
            "shots": 0,
            "simulations": 0,
            "jobs_submitted": 0,
            "dedup_coalesced": 0,
            "pmf_cache_hits": 0,
            "pmf_cache_requests": 0,
            "pmf_cache_evictions": 0,
        }
        for session in self._sessions.values():
            ledger = session.ledger()
            stats = session.stats()
            totals["circuits"] += ledger.circuits
            totals["shots"] += ledger.shots
            totals["simulations"] += stats.simulations
            totals["jobs_submitted"] += stats.jobs_submitted
            totals["dedup_coalesced"] += stats.dedup_coalesced
            totals["pmf_cache_hits"] += stats.pmf_cache.hits
            totals["pmf_cache_requests"] += stats.pmf_cache.requests
            totals["pmf_cache_evictions"] += stats.pmf_cache.evictions
        return totals

    def close(self) -> None:
        """Close every shared session and the backend it built.

        Idempotent; releases the worker processes of ``remote``
        backends.  Stats and engine totals stay readable afterwards.
        """
        for session in self._sessions.values():
            session.close()
