"""Sharded sweeps: byte-identity, resume, work-stealing, stale claims."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.dist.claims import ClaimQueue
from repro.dist.diff import diff_stores, store_digest
from repro.dist.shard import shard_aux_path
from repro.dist.shardworker import run_shard
from repro.sweeps import ResultStore, run_sweep
from repro.sweeps.runner import execute_point
from repro.sweeps.spec import Point


def _grid(n: int = 3) -> list[Point]:
    return [
        Point(task="trotter_error", options={"steps": s})
        for s in range(1, n + 1)
    ]


@pytest.fixture
def serial_store(tmp_path):
    store = ResultStore(tmp_path / "serial.jsonl")
    run_sweep(_grid(), store)
    return store


def test_sharded_records_match_serial(tmp_path, serial_store):
    sharded = ResultStore(tmp_path / "sharded.jsonl")
    report = run_sweep(_grid(), sharded, shards=2)
    assert diff_stores(serial_store, sharded) == []
    assert store_digest(sharded) == store_digest(serial_store)
    assert len(report.executed) == 3
    stats = report.shard_stats
    assert stats["shards"] == 2
    assert stats["executions"] >= 3
    assert sum(stats["shard_executions"]) + stats["inline"] == (
        stats["executions"]
    )
    # The claim queue exists next to the store (the CI artifact).
    assert shard_aux_path(sharded.path, "claims").exists()


def test_sharded_resume_executes_nothing(tmp_path):
    store = ResultStore(tmp_path / "resume.jsonl")
    run_sweep(_grid(), store, shards=2)
    report = run_sweep(_grid(), store, shards=2)
    assert report.executed == []
    assert report.skipped == 3
    assert report.shard_stats == {}


def test_killed_shard_loses_nothing(tmp_path, serial_store, monkeypatch):
    # Shard 0 SIGKILLs itself while holding a live claim after its
    # first execution; survivors steal the orphaned point after a
    # short grace period and the coordinator still returns a full,
    # byte-identical grid.
    monkeypatch.setenv("REPRO_DIST_KILL_SHARD", "0:1")
    monkeypatch.setenv("REPRO_DIST_STEAL_S", "0.3")
    store = ResultStore(tmp_path / "killed.jsonl")
    report = run_sweep(_grid(), store, shards=2)
    assert diff_stores(serial_store, store) == []
    assert len(report.executed) == 3


def test_every_shard_dead_runs_leftovers_inline(
    tmp_path, serial_store, monkeypatch
):
    # Every shard exits at once without executing a point; the
    # coordinator's final pass runs the whole grid inline and still
    # drives the progress callback once per point.
    monkeypatch.setattr(
        "repro.dist.shard._spawn_shard",
        lambda payload_path: subprocess.Popen(
            [sys.executable, "-c", "pass"]
        ),
    )
    seen = []
    store = ResultStore(tmp_path / "dead.jsonl")
    report = run_sweep(
        _grid(),
        store,
        shards=2,
        progress=lambda done, total, point, record: seen.append(
            (done, total)
        ),
    )
    assert diff_stores(serial_store, store) == []
    assert report.shard_stats["inline"] == 3
    assert report.shard_stats["executions"] == 3
    assert seen == [(1, 3), (2, 3), (3, 3)]


def test_dist_scaling_counts_inline_leftovers_once(monkeypatch):
    # The shard stats' executions already include the coordinator's
    # inline pass, so a grid that ran entirely inline executed each of
    # its points exactly once: no phantom duplicates.
    monkeypatch.setattr(
        "repro.dist.shard._spawn_shard",
        lambda payload_path: subprocess.Popen(
            [sys.executable, "-c", "pass"]
        ),
    )
    point = Point(
        task="dist_scaling",
        options={
            "shards": 2,
            "tuning_seeds": 1,
            "tuning_iterations": 2,
            "trotter_steps": [1, 2],
        },
    )
    result, _ = execute_point(point)
    assert result["points"] == result["records"] == 3
    assert result["executions"] == 3
    assert result["duplicates"] == 0


def test_stale_and_replayed_claims_never_skip_points(tmp_path):
    # A dead shard's claims — duplicated (replayed) and followed by a
    # torn tail — cover *every* point before the worker starts.
    # Claims are advisory: after the grace period the worker steals
    # and completes all of them.
    points = _grid()
    items = [(p, p.fingerprint()) for p in points]
    claims_path = tmp_path / "stale.claims.jsonl"
    queue = ClaimQueue(claims_path)
    for _, fingerprint in items:
        queue.claim(fingerprint, shard=99)
    lines = claims_path.read_text()
    with claims_path.open("a") as handle:
        handle.write(lines)  # replay every claim verbatim
        handle.write('{"torn week')  # killed writer mid-line
    store_path = tmp_path / "worker0.jsonl"
    summary = run_shard(
        {
            "shard": 0,
            "shards": 1,
            "store": str(store_path),
            "claims": str(claims_path),
            "sibling_stores": [str(store_path)],
            "coordinator_store": str(tmp_path / "main.jsonl"),
            "summary": str(tmp_path / "summary.json"),
            "steal_timeout_s": 0.1,
            "points": [
                {"point": p.to_dict(), "fingerprint": fp, "cost": 1.0}
                for p, fp in items
            ],
        }
    )
    assert summary["executed"] == len(points)
    assert summary["stolen"] == len(points)
    store = ResultStore(store_path)
    assert store.keys() == {fp for _, fp in items}
    assert json.loads(
        (tmp_path / "summary.json").read_text()
    ) == summary
    # The replayed journal still resolves one deterministic owner.
    reloaded = ClaimQueue(claims_path)
    assert all(reloaded.owner(fp) == 99 for _, fp in items)
