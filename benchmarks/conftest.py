"""Shared helpers for the paper-reproduction benchmarks.

``bench_catalog.py`` runs one test per catalog entry: it prints the
entry's tables and checks the paper's claims on its records.  This
module archives what the tests print (``benchmark_results.txt``, golden
recording) and writes one ``BENCH_<entry>.json`` cost record per entry.

``pytest benchmarks/ --benchmark-only`` runs everything; pytest-benchmark
records one timed round per experiment (experiments are minutes-long at
full scale, so statistical repetition is deliberately disabled).
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time

import pytest

# A failing paper claim reports its operands, as test asserts do; the
# catalog must be registered before anything imports ``repro``.
pytest.register_assert_rewrite("repro.sweeps.catalog")

from repro.obs import REGISTRY, snapshot_delta

try:
    import fcntl
except ImportError:  # non-POSIX: fall back to the in-process lock only
    fcntl = None

#: Every table printed by a benchmark is also appended here, so the
#: regenerated figures survive even when pytest captures stdout (i.e.
#: when the suite is run without ``-s``).
RESULTS_FILE = pathlib.Path(__file__).resolve().parent.parent / (
    "benchmark_results.txt"
)

#: Serializes appends from concurrent in-process writers; cross-process
#: writers (pytest-xdist workers, parallel invocations) additionally
#: take an exclusive flock on the results file itself.
_RESULTS_LOCK = threading.Lock()


def _append_results(text: str) -> None:
    """Append one entry's tables as a single locked write (never
    interleaved)."""
    try:
        with _RESULTS_LOCK:
            with RESULTS_FILE.open("a") as handle:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                try:
                    handle.write(text)
                    handle.flush()
                finally:
                    if fcntl is not None:
                        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    except OSError:
        pass


#: When set, each entry's printed tables also replace
#: ``$REPRO_GOLDEN_DIR/<entry>.txt`` — the recording mode that produced
#: ``tests/golden/``.  Re-record with::
#:
#:     REPRO_GOLDEN_DIR=tests/golden python -m pytest benchmarks/
_GOLDEN_DIR = os.environ.get("REPRO_GOLDEN_DIR")


def pytest_sessionstart(session):
    """Start each benchmark session with a fresh results file.

    Only the controlling process truncates — xdist workers start after
    it and must not wipe rows their siblings already appended.
    """
    if os.environ.get("PYTEST_XDIST_WORKER"):
        return
    try:
        RESULTS_FILE.write_text("")
    except OSError:
        pass


#: Per-entry accumulated BENCH payloads: wall clock plus engine metric
#: deltas around each test call, summed per catalog entry.
_BENCH_STATS: dict[str, dict[str, float]] = {}

_BENCH_COUNTERS = {
    "circuits": "repro_engine_jobs_total",
    "shots": "repro_engine_shots_total",
    "simulations": "repro_engine_simulations_total",
    "cache_hits": "repro_engine_cache_hits_total",
    "batches": "repro_engine_batches_total",
    "plan_cache_hits": "repro_engine_plan_cache_hits_total",
    "plan_cache_misses": "repro_engine_plan_cache_misses_total",
}


def _bench_dir() -> pathlib.Path:
    """Where BENCH_<entry>.json files land (repo root by default)."""
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return pathlib.Path(override)
    return RESULTS_FILE.parent


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Wrap each benchmark call with wall-clock + engine metric deltas.

    Accumulated per catalog entry and written as ``BENCH_<entry>.json``
    at session end — the machine-readable cost record CI uploads as an
    artifact next to ``benchmark_results.txt``.
    """
    before = REGISTRY.snapshot()
    started = time.perf_counter()
    yield
    wall = time.perf_counter() - started
    delta = snapshot_delta(REGISTRY.snapshot(), before)
    entry = item.callspec.params["name"]
    with _RESULTS_LOCK:
        stats = _BENCH_STATS.setdefault(
            entry, {"tests": 0, "wall_s": 0.0}
        )
        stats["tests"] += 1
        stats["wall_s"] += wall
        for name, metric in _BENCH_COUNTERS.items():
            stats[name] = stats.get(name, 0) + int(delta.get(metric, 0))


def pytest_sessionfinish(session, exitstatus):
    """Write one ``BENCH_<entry>.json`` per entry that ran.

    Skipped in xdist workers (each would see only its shard); the
    controlling process of a non-distributed run writes complete
    per-entry files.
    """
    if os.environ.get("PYTEST_XDIST_WORKER") or not _BENCH_STATS:
        return
    bench_dir = _bench_dir()
    try:
        bench_dir.mkdir(parents=True, exist_ok=True)
        for entry, stats in sorted(_BENCH_STATS.items()):
            payload = dict(stats)
            payload["entry"] = entry
            hits = payload.get("cache_hits", 0)
            requests = hits + payload.get("simulations", 0)
            payload["cache_requests"] = requests
            path = bench_dir / f"BENCH_{entry}.json"
            path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
    except OSError:
        pass


def record_entry_stat(entry: str, **values) -> None:
    """Merge extra fields into an entry's ``BENCH_<entry>.json`` payload.

    The harness's wall-clock checks use this for derived quantities the
    metric counters can't express (e.g. the engine-vs-direct speedup
    ratio CI gates on).
    """
    with _RESULTS_LOCK:
        stats = _BENCH_STATS.setdefault(
            entry, {"tests": 0, "wall_s": 0.0}
        )
        stats.update(values)


def print_tables(entry: str, tables) -> None:
    """Print an entry's :class:`~repro.sweeps.render.Table`\\ s.

    The text goes to stdout and ``RESULTS_FILE``; under
    ``REPRO_GOLDEN_DIR`` it also replaces that directory's
    ``<entry>.txt`` (golden recording), so re-recording one entry with
    ``-k`` rewrites exactly that entry's golden.
    """
    text = "".join(table.render() + "\n" for table in tables)
    print(text, end="")
    _append_results(text)
    if _GOLDEN_DIR:
        golden = pathlib.Path(_GOLDEN_DIR)
        golden.mkdir(parents=True, exist_ok=True)
        (golden / f"{entry}.txt").write_text(text)
