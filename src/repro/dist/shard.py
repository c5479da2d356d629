"""Sharded sweep execution: the coordinator side.

``run_sweep(..., shards=N)`` lands here.  The coordinator partitions
nothing up front — it writes one payload per shard listing *all*
pending points in cost order (most expensive first, see
:mod:`repro.dist.costs`), spawns N shard worker subprocesses
(``python -m repro.dist.shardworker``), and lets the shared journaled
claim queue (:mod:`repro.dist.claims`) decide who executes what.
Each shard appends finished records to its **own** JSONL store; the
coordinator polls the shard stores while workers run, merging records
into the main store via the fingerprint-keyed first-wins journal merge
and driving the caller's progress callback.

Failure model (the properties CI's ``dist-smoke`` kills a shard to
prove):

* A shard dying — even ``SIGKILL`` mid-point, holding a claim — loses
  nothing: its finished records are already durable in its shard
  store, and its claimed-but-unfinished points are stolen by surviving
  shards after a grace period, or executed inline by the coordinator's
  final pass if every shard is gone.
* Nothing is ever duplicated *in the store*: the merge is keyed by
  point fingerprint, first record wins, and records for the same point
  are bit-identical by the repository's determinism discipline (so
  which one wins is unobservable).
* Records are byte-identical to a serial run up to the two volatile
  timing fields (see :mod:`repro.dist.diff`).

Shard workers are plain ``subprocess`` children (not
``multiprocessing``), so sharding works from any calling process — e.g.
a ``dist_scaling`` point running on ``run_sweep``'s process pool.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from .. import obs
from ..obs import REGISTRY
from ..sweeps.spec import Point
from ..sweeps.store import ResultStore
from .claims import ClaimQueue
from .costs import estimate_point_cost, order_by_cost

__all__ = ["ShardStats", "run_sharded", "shard_aux_path"]

logger = logging.getLogger("repro.dist")

#: Seconds a claimed-but-unfinished point must stall before another
#: shard steals it (overridable via ``REPRO_DIST_STEAL_S``).
DEFAULT_STEAL_S = 5.0

#: Coordinator poll interval while shard workers run.
_POLL_S = 0.15

_M_SHARDS = REGISTRY.counter(
    "repro_dist_shards_total",
    "Shard worker processes spawned by sharded sweeps",
)
_M_EXECUTIONS = REGISTRY.counter(
    "repro_dist_point_executions_total",
    "Point executions performed by shard workers",
)
_M_STOLEN = REGISTRY.counter(
    "repro_dist_points_stolen_total",
    "Points executed through the work-stealing path",
)
_M_MERGED = REGISTRY.counter(
    "repro_dist_records_merged_total",
    "Shard records merged into the coordinator store",
)


def shard_aux_path(base: str | Path, tag: str) -> Path:
    """Sibling journal path for ``tag`` next to the main store.

    ``results.jsonl`` -> ``results.shard0.jsonl`` /
    ``results.claims.jsonl`` — the artifact layout CI uploads.
    """
    base = Path(base)
    suffix = base.suffix or ".jsonl"
    return base.with_name(f"{base.stem}.{tag}{suffix}")


class ShardStats(dict):
    """Per-run sharding statistics (a plain dict with a docstring).

    Keys: ``shards``, ``executions`` (total point executions across
    shard workers and the coordinator's inline pass), ``stolen``,
    ``merged``, ``inline``, and per-shard ``shard_executions``.
    """


def _steal_timeout() -> float:
    """The work-steal grace period (env-overridable for tests/CI)."""
    raw = os.environ.get("REPRO_DIST_STEAL_S")
    try:
        return float(raw) if raw else DEFAULT_STEAL_S
    except ValueError:
        return DEFAULT_STEAL_S


def _spawn_shard(payload_path: Path) -> subprocess.Popen:
    """Start one shard worker subprocess with the package importable."""
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + existing if existing else src_dir
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.dist.shardworker", str(payload_path)],
        env=env,
    )


def _merge_ready(
    items: list[tuple[Point, str]],
    store: ResultStore,
    shard_paths: list[Path],
    on_merged: Callable[[Point, str, dict], None],
) -> None:
    """Pull newly-finished shard records into the main store."""
    shard_stores = [
        ResultStore(path) for path in shard_paths if path.exists()
    ]
    if not shard_stores:
        return
    for point, fingerprint in items:
        if fingerprint in store:
            continue
        for shard_store in shard_stores:
            record = shard_store.get(fingerprint)
            if record is not None:
                if store.append_record(fingerprint, record):
                    _M_MERGED.inc()
                    on_merged(point, fingerprint, record)
                break


def run_sharded(
    pending: list[tuple[Point, str]],
    store: ResultStore,
    shards: int,
    progress: Callable[[int, int, Point, dict], None] | None = None,
) -> tuple[list[tuple[str, dict]], ShardStats]:
    """Execute ``pending`` across ``shards`` worker subprocesses.

    Returns ``(executed, stats)`` where ``executed`` is the runner's
    usual ``(fingerprint, record)`` list covering every pending point
    (all are complete on return, whatever happened to individual
    shards) and ``stats`` is a :class:`ShardStats`.
    """
    if shards < 2:
        raise ValueError("run_sharded needs shards >= 2")
    items = order_by_cost(pending)
    total = len(items)
    base = Path(store.path)
    claims_path = shard_aux_path(base, "claims")
    claims_path.unlink(missing_ok=True)
    # Touch the claim queue so the file exists for artifact upload
    # even when a tiny grid never contends.
    ClaimQueue(claims_path)
    shard_paths = [
        shard_aux_path(base, f"shard{index}") for index in range(shards)
    ]
    summary_paths = [
        shard_aux_path(base, f"shard{index}.summary").with_suffix(".json")
        for index in range(shards)
    ]

    point_payload = [
        {
            "point": point.to_dict(),
            "fingerprint": fingerprint,
            "cost": estimate_point_cost(point),
        }
        for point, fingerprint in items
    ]
    started = time.perf_counter()
    procs: list[subprocess.Popen] = []
    payload_paths: list[Path] = []
    for index in range(shards):
        summary_paths[index].unlink(missing_ok=True)
        payload = {
            "shard": index,
            "shards": shards,
            "store": str(shard_paths[index]),
            "claims": str(claims_path),
            "sibling_stores": [str(p) for p in shard_paths],
            "coordinator_store": str(base),
            "summary": str(summary_paths[index]),
            "steal_timeout_s": _steal_timeout(),
            "points": point_payload,
        }
        payload_path = shard_aux_path(
            base, f"shard{index}.payload"
        ).with_suffix(".json")
        payload_path.write_text(json.dumps(payload))
        payload_paths.append(payload_path)
        procs.append(_spawn_shard(payload_path))
        _M_SHARDS.inc()

    executed: list[tuple[str, dict]] = []

    def on_merged(point: Point, fingerprint: str, record: dict) -> None:
        executed.append((fingerprint, record))
        if progress is not None:
            progress(len(executed), total, point, record)

    while any(proc.poll() is None for proc in procs):
        _merge_ready(items, store, shard_paths, on_merged)
        time.sleep(_POLL_S)
    for index, proc in enumerate(procs):
        if proc.returncode not in (0, None):
            logger.warning(
                "shard %d exited with code %s", index, proc.returncode
            )
    _merge_ready(items, store, shard_paths, on_merged)

    # Every-shard-died safety net: whatever is still missing executes
    # inline, so the coordinator always returns a complete grid.
    leftovers = [
        (point, fingerprint)
        for point, fingerprint in items
        if fingerprint not in store
    ]
    inline = 0
    if leftovers:
        from ..sweeps.runner import _run_inline

        logger.warning(
            "executing %d points inline (no shard completed them)",
            len(leftovers),
        )
        inline = len(
            _run_inline(
                leftovers,
                store,
                lambda _done, _total, point, record: on_merged(
                    point, record["fingerprint"], record
                ),
            )
        )
    _M_EXECUTIONS.inc(inline)

    stats = ShardStats(
        shards=shards,
        executions=inline,
        stolen=0,
        merged=len(executed) - inline,
        inline=inline,
        shard_executions=[0] * shards,
    )
    for index, summary_path in enumerate(summary_paths):
        summary = _read_summary(summary_path)
        if summary is None:
            continue
        shard_executed = int(summary.get("executed", 0))
        shard_stolen = int(summary.get("stolen", 0))
        stats["executions"] += shard_executed
        stats["stolen"] += shard_stolen
        stats["shard_executions"][index] = shard_executed
        _M_EXECUTIONS.inc(shard_executed)
        _M_STOLEN.inc(shard_stolen)
        obs.record(
            "dist.shard",
            float(summary.get("wall_s", 0.0)),
            shard=index,
            executed=shard_executed,
            stolen=shard_stolen,
        )
    for payload_path in payload_paths:
        payload_path.unlink(missing_ok=True)
    logger.info(
        "sharded sweep done: %d records in %.3fs (%s)",
        len(executed), time.perf_counter() - started, dict(stats),
    )
    return executed, stats


def _read_summary(path: Path) -> dict[str, Any] | None:
    """A shard's end-of-run summary (``None`` if it died before writing)."""
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
