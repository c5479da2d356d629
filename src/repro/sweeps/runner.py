"""Sweep execution: pending points -> checkpointed records.

The runner owns the experiment *mechanics* that used to live inside
``analysis/experiments.py`` — backend construction, per-point
deterministic seeding, estimator wiring, the VQE loop — exposed at two
levels:

* :func:`execute_tuning` works on live ``Workload``/``DeviceModel``
  objects; every tuning run in the repository goes through it.
* :func:`execute_point` / :func:`run_sweep` work on declarative
  :class:`~repro.sweeps.spec.Point` grids: materialize the workload,
  run the tuning, and checkpoint a JSON record (result + wall clock +
  circuit/shot ledger) into a :class:`~repro.sweeps.store.ResultStore`.

Every point is self-contained — its own freshly-seeded backend, its own
(per-backend shared) engine — so points may execute in any order,
inline or on any number of worker processes, without changing a single
stored number: ``workers=4`` produces bit-identical records to a
serial run.  Each point materializes its own workload and warm start,
through a content-keyed cache that lives in the executing process.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .. import obs
from ..api import EstimatorSpec, Session
from ..noise import DEVICE_PRESETS, DeviceModel, SimulatorBackend
from ..optimizers import SPSA
from ..vqe import run_vqe
from ..workloads import Workload, make_spin_workload, make_workload
from .spec import Point, SweepSpec, canonical_json
from .store import ResultStore

__all__ = [
    "NAMED_WORKLOADS",
    "execute_tuning",
    "materialize_workload",
    "materialize_device",
    "execute_point",
    "SweepReport",
    "record_totals",
    "run_sweep",
]

logger = logging.getLogger("repro.sweeps")


def execute_tuning(
    spec: EstimatorSpec,
    workload: Workload,
    max_iterations: int,
    circuit_budget: int | None = None,
    seed: int = 0,
    device: DeviceModel | None = None,
    spsa_gain: float | None = 0.3,
    initial_params: np.ndarray | None = None,
    backend: SimulatorBackend | None = None,
    engine=None,
):
    """One estimator's full VQE tuning loop (the repository's one code
    path).

    Returns a :class:`~repro.analysis.TuningRun`.  ``backend=None``
    builds a fresh ``SimulatorBackend(device or workload.device,
    seed)`` — the deterministic per-trial discipline; pass an existing
    backend (and optionally its ``engine``) to keep reading its ledger
    afterwards (the sweep runner and the serve jobs do).
    """
    from ..analysis.experiments import TuningRun

    if backend is None:
        device = device if device is not None else workload.device
        backend = SimulatorBackend(device, seed=seed)
    estimator = spec.build(workload, backend, engine)
    result = run_vqe(
        estimator,
        optimizer=SPSA(a=spsa_gain, seed=seed),
        max_iterations=max_iterations,
        circuit_budget=circuit_budget,
        initial_params=initial_params,
        seed=seed,
    )
    fraction = getattr(estimator, "global_fraction", None)
    return TuningRun(
        kind=spec.kind, result=result, global_fraction=fraction
    )


# --------------------------------------------------------- materialization


def _paper_tfim_workload(
    reps: int = 2, entanglement: str = "full"
) -> Workload:
    """Fig. 16's bespoke workload: the paper's 5-qubit, 3-term TFIM."""
    from ..ansatz import EfficientSU2
    from ..hamiltonian import paper_tfim
    from ..noise import ibmq_mumbai_like

    return Workload(
        key="TFIM-5x3",
        hamiltonian=paper_tfim(),
        ansatz=EfficientSU2(5, reps=reps, entanglement=entanglement),
        device=ibmq_mumbai_like(),
    )


#: Bespoke paper workloads addressable as ``{"named": <name>, ...}``.
NAMED_WORKLOADS: dict[str, Callable[..., Workload]] = {
    "paper_tfim": _paper_tfim_workload,
}


def materialize_workload(description: Mapping) -> Workload:
    """Build the live :class:`Workload` a point's description names."""
    description = dict(description)
    if "key" in description:
        return make_workload(description.pop("key"), **description)
    if "model" in description:
        return make_spin_workload(
            description.pop("model"),
            description.pop("n_qubits"),
            **description,
        )
    if "qaoa" in description:
        from ..qaoa import make_qaoa_workload

        return make_qaoa_workload(
            description.pop("qaoa"),
            description.pop("n_qubits"),
            **description,
        )
    if "named" in description:
        name = description.pop("named")
        if name not in NAMED_WORKLOADS:
            raise ValueError(
                f"unknown named workload {name!r}; "
                f"choose from {sorted(NAMED_WORKLOADS)}"
            )
        return NAMED_WORKLOADS[name](**description)
    raise ValueError(
        f"workload description names no known kind: {description!r}"
    )


def materialize_device(description: Mapping | None) -> DeviceModel | None:
    """Build the device a point names (``None`` -> workload default).

    An optional ``"drift"`` key carries a
    :meth:`~repro.noise.drift.DriftSchedule.to_dict` payload; the
    preset is then wrapped in a
    :class:`~repro.noise.DriftingDeviceModel` with a fresh clock, so
    every point replays the identical noise trajectory.
    """
    if description is None:
        return None
    description = dict(description)
    drift = description.pop("drift", None)
    preset = description.pop("preset")
    if preset not in DEVICE_PRESETS:
        raise ValueError(
            f"unknown device preset {preset!r}; "
            f"choose from {sorted(DEVICE_PRESETS)}"
        )
    device = DEVICE_PRESETS[preset](**description)
    if drift is not None:
        from ..noise import DriftingDeviceModel, schedule_from_dict

        device = DriftingDeviceModel(device, schedule_from_dict(drift))
    return device


def _warm_start_params(
    point: Point, workload: Workload, workload_cache: dict
) -> np.ndarray | None:
    """The point's warm-start parameters (``None`` for a cold start)."""
    from ..analysis.experiments import optimal_parameters

    warm = point.warm_start
    if point.warm_start_iterations is not None:
        warm = {"kind": "optimal",
                "iterations": point.warm_start_iterations}
    if warm is None:
        return None
    if warm["kind"] == "optimal":
        kwargs = {k: v for k, v in warm.items() if k != "kind"}
        return optimal_parameters(workload, **kwargs)
    # "ideal_vqe": a noise-free VQE pre-tune (deterministic; cached in
    # the run's workload cache so multi-scheme grids pay it once).
    cache_key = (
        "warm", canonical_json(point.workload), canonical_json(warm)
    )
    params = workload_cache.get(cache_key)
    if params is None:
        estimator = Session().estimator("ideal", workload)
        params = run_vqe(
            estimator,
            max_iterations=warm["iterations"],
            seed=warm.get("seed"),
        ).parameters
        workload_cache[cache_key] = params
    return params


def _prepare_point(
    point: Point, workload_cache: dict
) -> tuple[Workload | None, DeviceModel | None, np.ndarray | None]:
    """Materialize a point's live objects (workloads cached by content).

    Points of tasks outside :data:`repro.sweeps.spec.WORKLOAD_TASKS`
    prepare to ``(None, device, None)`` — their executors own
    materialization (some, like structure counts on a 34-qubit system,
    must never build an ansatz/device at all).
    """
    from .spec import WORKLOAD_TASKS

    if not point.workload or point.task not in WORKLOAD_TASKS:
        return None, materialize_device(point.device), None
    cache_key = canonical_json(point.workload)
    workload = workload_cache.get(cache_key)
    if workload is None:
        workload = materialize_workload(point.workload)
        workload_cache[cache_key] = workload
    device = materialize_device(point.device)
    initial = _warm_start_params(point, workload, workload_cache)
    return workload, device, initial


def execute_point(
    point: Point, workload_cache: dict | None = None
) -> tuple[dict, float]:
    """Run one grid cell; return ``(json-safe result, wall seconds)``.

    Dispatches on ``point.task`` through the executor registry in
    :mod:`repro.sweeps.tasks`.  For the default ``tuning`` task the
    result captures the tuned energy, its error against the workload's
    ideal energy, iteration count, the backend's full circuit/shot
    ledger for the run, and the scheme's Global fraction where it has
    one; other tasks store their own JSON payloads.
    """
    from .tasks import resolve_task

    executor = resolve_task(point.task)
    workload_cache = workload_cache if workload_cache is not None else {}
    start = time.perf_counter()
    result = executor(point, workload_cache)
    wall = time.perf_counter() - start
    return result, wall


def execute_tuning_point(point: Point, workload_cache: dict) -> dict:
    """The ``tuning`` task: one deterministic VQE tuning run.

    The estimator is the one :meth:`Point.estimator_spec
    <repro.sweeps.spec.Point.estimator_spec>` resolves from the
    point's ``scheme``, ``estimator`` payload and ``shots``; a payload
    carrying its own ``'kind'`` overrides the scheme entirely (the
    inline-spec form).

    The execution backend comes from the point's optional ``backend``
    field through the :mod:`repro.backends` registry; absent, the
    ``dense`` default is constructed exactly as the pre-registry
    runner did.  The point closes the backend it built, so a
    ``remote`` backend's workers never outlive it.
    """
    from ..backends import make_backend

    workload, device, initial = _prepare_point(point, workload_cache)
    backend = make_backend(
        point.backend,
        device if device is not None else workload.device,
        seed=point.seed,
    )
    try:
        run = execute_tuning(
            point.estimator_spec(),
            workload,
            max_iterations=point.max_iterations,
            circuit_budget=point.circuit_budget,
            seed=point.seed,
            spsa_gain=point.spsa_gain,
            initial_params=initial,
            backend=backend,
        )
    finally:
        backend.close()
    fraction = run.global_fraction
    result = {
        "energy": float(run.energy),
        "ideal_energy": float(workload.ideal_energy),
        "error": float(abs(run.energy - workload.ideal_energy)),
        "iterations": int(run.result.iterations),
        "iterations_completed": len(run.result.energy_history),
        "circuits": int(run.result.circuits_executed),
        "shots": int(run.result.shots_executed),
        "global_fraction": None if fraction is None else float(fraction),
        "stop_reason": run.result.stop_reason,
    }
    if point.options.get("trace"):
        result["energy_history"] = [
            float(e) for e in run.result.energy_history
        ]
    return result


# ------------------------------------------------------------ the sweep


def record_totals(records: Iterable[dict]) -> dict:
    """Summed cost of ``records``: points, wall seconds, circuits, shots.

    Circuits and shots count where the task records them (tuning points
    always do).  The CLI's end-of-run ``cost:`` line prints these totals
    over the records one run executed.
    """
    totals = {"points": 0, "wall_s": 0.0, "circuits": 0, "shots": 0}
    for record in records:
        totals["points"] += 1
        totals["wall_s"] += float(record.get("wall_time_s", 0.0))
        result = record.get("result", {})
        if isinstance(result, dict):
            for key in ("circuits", "shots"):
                value = result.get(key)
                if isinstance(value, (int, float)):
                    totals[key] += int(value)
    return totals


@dataclass
class SweepReport:
    """What one :func:`run_sweep` call did."""

    total: int
    skipped: int
    executed: list[str] = field(default_factory=list)
    records: dict = field(default_factory=dict)
    #: Sharded-run statistics (``shards``, ``executions``, ``stolen``,
    #: ``merged`` ...); empty for unsharded runs.  See
    #: :class:`repro.dist.shard.ShardStats`.
    shard_stats: dict = field(default_factory=dict)

    @property
    def pending_after(self) -> int:
        """Grid cells still missing from the store (``limit`` leftovers)."""
        return self.total - len(self.records)

    def executed_totals(self) -> dict:
        """:func:`record_totals` over the points *this run* executed."""
        return record_totals(
            self.records[fingerprint]
            for fingerprint in self.executed
            if fingerprint in self.records
        )

    def summary(self) -> str:
        """One-line progress summary (the CLI's report line)."""
        return (
            f"executed {len(self.executed)} points, skipped {self.skipped} "
            f"already complete ({self.total} total"
            + (f", {self.pending_after} still pending" if self.pending_after
               else "")
            + ")"
        )


def _accepts_progress_state(progress) -> bool:
    """Whether ``progress`` can take the fifth (SweepProgress) argument."""
    import inspect

    try:
        signature = inspect.signature(progress)
    except (TypeError, ValueError):
        return False
    positional = 0
    for parameter in signature.parameters.values():
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            positional += 1
        elif parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            return True
    return positional >= 5


def _cost_progress(progress, pending: list[tuple[Point, str]]):
    """Wrap a progress callback with cost-weighted completion tracking.

    The wrapper keeps the 4-argument calling convention toward the
    executors; callbacks that accept a fifth positional argument get a
    :class:`repro.dist.costs.SweepProgress` snapshot — points done
    *and* estimated cost fraction complete, plus a cost-based ETA.
    Point-count ETAs are wildly wrong on mixed grids (a quench cell is
    ~100x a tuning cell); the cost fraction is the honest signal.
    """
    if progress is None:
        return None
    from ..dist.costs import SweepProgress, estimate_point_cost

    costs = {
        fingerprint: estimate_point_cost(point)
        for point, fingerprint in pending
    }
    cost_total = float(sum(costs.values()))
    wants_state = _accepts_progress_state(progress)
    cost_done = 0.0
    started = time.perf_counter()

    def wrapped(done: int, total: int, point: Point, record: dict) -> None:
        nonlocal cost_done
        cost_done += costs.get(record.get("fingerprint", ""), 0.0)
        if wants_state:
            state = SweepProgress(
                points_done=done,
                points_total=total,
                cost_done=cost_done,
                cost_total=cost_total,
                elapsed_s=time.perf_counter() - started,
            )
            progress(done, total, point, record, state)
        else:
            progress(done, total, point, record)

    return wrapped


#: Per-worker-process workload/warm-start cache (one per forked worker,
#: reused across the points that worker executes).
_PROCESS_CACHE: dict = {}


def _process_execute(payload: dict) -> tuple[str, dict, float]:
    """Process-pool entry point: one picklable point payload in, its
    JSON result out.  Runs in the worker process; per-point
    deterministic seeding makes the result independent of which worker
    (or how many workers) executed it."""
    point = Point.from_dict(payload["point"])
    result, wall = execute_point(point, _PROCESS_CACHE)
    return payload["fingerprint"], result, wall


def run_sweep(
    spec: SweepSpec | Iterable[Point],
    store: ResultStore,
    workers: int = 1,
    progress: Callable[[int, int, Point, dict], None] | None = None,
    limit: int | None = None,
    shards: int = 1,
) -> SweepReport:
    """Execute every grid point not already checkpointed in ``store``.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` or any iterable of :class:`Point`\\ s.
    store:
        Completed points (matched by fingerprint) are skipped — re-run
        after a crash and only the missing cells execute.  Every
        finished point is checkpointed immediately.
    workers:
        ``1`` executes inline, one point after another; more ships
        each pending point to a :class:`ProcessPoolExecutor` worker as
        a picklable payload (worker processes keep their own workload
        caches) and checkpoints in this process as results complete.
        Stored results are bit-identical either way — each point is
        self-contained and deterministically seeded.
    progress:
        Called in this process as
        ``progress(done, pending_total, point, record)`` after each
        checkpointed point.  A callback accepting a fifth positional
        argument additionally receives a
        :class:`repro.dist.costs.SweepProgress` carrying the
        cost-weighted completion fraction and ETA — the honest signal
        on mixed grids where point counts mislead.
    limit:
        Execute at most this many pending points this call (useful for
        drip-feeding or deliberately "interrupting" a sweep).
    shards:
        ``> 1`` runs the pending points through
        :func:`repro.dist.shard.run_sharded`: shard worker
        subprocesses coordinate via a journaled claim queue (with
        work-stealing), append to per-shard stores, and the
        coordinator merges — records byte-identical to a serial run
        up to the volatile timing fields.  Slower than the process
        pool (each shard starts its own interpreter) but the only path
        that survives a killed worker; ``workers`` applies only when
        sharding is off.

    Returns a :class:`SweepReport`; ``report.records`` maps fingerprint
    -> record for every grid point present in the store after the run.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    points = list(spec.points() if isinstance(spec, SweepSpec) else spec)
    fingerprints = [point.fingerprint() for point in points]
    seen: set[str] = set()
    pending: list[tuple[Point, str]] = []
    for point, fingerprint in zip(points, fingerprints):
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        if fingerprint not in store:
            pending.append((point, fingerprint))
    skipped = len(seen) - len(pending)
    if limit is not None:
        pending = pending[: max(0, limit)]

    report = SweepReport(total=len(seen), skipped=skipped)
    logger.info(
        "sweep start: %d pending of %d points (%d already complete, "
        "workers=%d, shards=%d)",
        len(pending), len(seen), skipped, workers, shards,
    )

    progress = _cost_progress(progress, pending)
    if shards > 1 and len(pending) > 1:
        from ..dist.shard import run_sharded

        executed, shard_stats = run_sharded(
            pending, store, shards=shards, progress=progress
        )
        report.shard_stats = dict(shard_stats)
    elif workers > 1 and len(pending) > 1:
        executed = _run_process_pool(pending, store, workers, progress)
    else:
        executed = _run_inline(pending, store, progress)

    logger.info("sweep done: executed %d points", len(executed))
    report.executed = [fingerprint for fingerprint, _ in executed]
    report.records = {
        fingerprint: store.get(fingerprint)
        for fingerprint in dict.fromkeys(fingerprints)
        if fingerprint in store
    }
    return report


def _run_inline(
    pending: list[tuple[Point, str]],
    store: ResultStore,
    progress,
) -> list[tuple[str, dict]]:
    """Execute and checkpoint ``pending`` one after another, in process.

    The one in-process point loop: :func:`run_sweep` runs ``workers=1``
    grids through it, and :func:`repro.dist.shard.run_sharded` runs the
    points no shard completed.
    """
    workload_cache: dict = {}
    executed: list[tuple[str, dict]] = []
    for point, fingerprint in pending:
        with obs.span(
            "sweep.point",
            fingerprint=fingerprint,
            task=point.task,
            label=point.label(),
        ):
            result, wall = execute_point(point, workload_cache)
        logger.debug(
            "point %s (%s) finished in %.3fs",
            point.label(), fingerprint[:12], wall,
        )
        record = store.append(
            point, result, wall_time_s=wall, fingerprint=fingerprint
        )
        executed.append((fingerprint, record))
        if progress is not None:
            progress(len(executed), len(pending), point, record)
    return executed


def _run_process_pool(
    pending: list[tuple[Point, str]],
    store: ResultStore,
    workers: int,
    progress,
) -> list[tuple[str, dict]]:
    executed: list[tuple[str, dict]] = []
    by_fingerprint = dict((f, p) for p, f in pending)
    first_error: Exception | None = None
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(
                _process_execute,
                {"point": point.to_dict(), "fingerprint": fingerprint},
            )
            for point, fingerprint in pending
        ]
        for future in as_completed(futures):
            # Checkpoint every finished point even when a sibling
            # failed — otherwise one bad cell would discard work that
            # already completed and force it to re-execute after the
            # fix.  The first failure is re-raised once the pool
            # drains.
            try:
                fingerprint, result, wall = future.result()
            except Exception as exc:  # noqa: BLE001 - re-raised below
                logger.warning("process-pool point failed: %s", exc)
                if first_error is None:
                    first_error = exc
                continue
            point = by_fingerprint[fingerprint]
            # Worker processes trace nothing (the tracer lives in the
            # parent); replay the measured wall clock as a parent span.
            obs.record(
                "sweep.point",
                wall,
                fingerprint=fingerprint,
                task=point.task,
                label=point.label(),
                executor="process",
            )
            record = store.append(
                point, result, wall_time_s=wall, fingerprint=fingerprint
            )
            executed.append((fingerprint, record))
            if progress is not None:
                # Count successful checkpoints only.
                progress(len(executed), len(pending), point, record)
    if first_error is not None:
        raise first_error
    return executed
