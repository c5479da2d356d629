"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload quickstart_h2_4 --seed 7 \\
        --seconds 30 --trace 0

The program under test is imported from ``src/`` next to this
directory; without it the benchmark prints why and exits with status 1.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with no wrappers installed.  Neighbours on a shared host slow it by up
to ~1.8x, in spells of milliseconds to tens of seconds, so the
single-threaded workloads time their work as the host would run it
undisturbed:

* set-ups, and each quickstart evaluation, are rescaled by the time of
  a fixed slice of the benchmark's own work run right next to them
  (``workloads.reference_work``; ``REFERENCE_S`` converts back to
  seconds), so ``setup_s`` and quickstart's throughput are seconds at
  that reference speed;
* throughput then divides the work by the sum, over the steps every
  repeat of it shares, of each step's fastest repeat
  (``workloads._undisturbed_s``): a quickstart unit's evaluations, or
  a density operation.

The serve workload's throughput is requests per wall second, as its
tenants see it.  BLAS runs on one thread: a second one waits on
whichever core a neighbour holds.

``--trace 1`` runs the workload untraced
for a third of ``--seconds``, replays the same work untraced once more,
then a third time with layer wrappers installed (see ``tracing.py``);
it checks that both replays reproduced the first pass and reports the
per-layer metrics, with the traced replay's time over the untraced
replay's as the overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
the same numbers for reading.  Each run also writes a result file
(environment record included) under ``perfbench/results/``, which
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOAD_NAMES = ("quickstart_h2_4", "density_jigsaw_6q", "serve_two_tenants")

#: What one operation is, per workload (for the readable summary).
OPERATION = {
    "quickstart_h2_4": "eval",
    "density_jigsaw_6q": "mitigated_circuit",
    "serve_two_tenants": "request",
}


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` or exit with 1."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}")
    return repro


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _environment() -> dict:
    import ctypes

    import numpy as np

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if path.is_file():
                commit = path.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {
            line.split()[-1] for line in maps if "openblas" in line
        }
    for library in sorted(libraries):
        lib = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def _engine_metrics(engines) -> dict:
    def ratio(hits, total):
        return hits / total if total else 0.0

    jobs = sum(s.jobs_submitted for s in engines)
    sims = sum(s.simulations for s in engines)
    return {
        "engine.batches": sum(s.batches_run for s in engines),
        "engine.jobs": jobs,
        "engine.simulations": sims,
        "engine.sims_per_job": ratio(sims, jobs),
        "engine.plan_cache_hit_ratio": ratio(
            sum(s.plan_cache.hits for s in engines),
            sum(s.plan_cache.requests for s in engines),
        ),
        "engine.pmf_cache_hit_ratio": ratio(
            sum(s.pmf_cache.hits for s in engines),
            sum(s.pmf_cache.requests for s in engines),
        ),
        "engine.pmf_cache_bytes": max(
            (s.pmf_cache.bytes for s in engines), default=0
        ),
        "engine.state_cache_bytes": max(
            (s.state_cache.bytes for s in engines), default=0
        ),
    }


SERVE_METRICS = (
    "serve.batches", "serve.executed", "serve.db_hits", "serve.coalesced",
    "serve.dedup_ratio", "serve.requests_per_batch",
    "serve.queue_wait_mean_ms", "serve.failed", "serve.refused",
)


def _serve_metrics(passed) -> dict:
    service = passed.service
    if service is None:
        return dict.fromkeys(SERVE_METRICS, 0)
    stats = service.coalescer.stats
    wait = service.metrics.histogram("repro_serve_queue_wait_seconds")
    batched = wait.count()
    return {
        "serve.batches": stats.batches,
        "serve.executed": stats.executed,
        "serve.db_hits": stats.served_from_db,
        "serve.coalesced": stats.coalesced,
        "serve.dedup_ratio": (
            (stats.served_from_db + stats.coalesced) / passed.ops
            if passed.ops else 0.0
        ),
        "serve.requests_per_batch": (
            batched / stats.batches if stats.batches else 0.0
        ),
        "serve.queue_wait_mean_ms": (
            1e3 * wait.sum() / batched if batched else 0.0
        ),
        "serve.failed": service.status().failed,
        "serve.refused": passed.refused,
    }


def _probe_setup(args) -> float:
    """One cold set-up, timed in a fresh process."""
    probe = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(probe.stdout.splitlines()[-1])["setup_s"]


def _end_to_end(passed, setup_s: list[float]) -> dict:
    ops, circuits, seconds = passed.ops, passed.circuits, passed.timed_s
    if passed.steady_s > 0:
        ops, circuits = passed.steady_ops, passed.steady_circuits
        seconds = passed.steady_s
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": ops / seconds,
        "circuits_per_s": circuits / seconds,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
    }


def _latency(passed) -> dict:
    """Per-operation latency percentiles, reported but not bounded.

    On the CPU-bound workloads their run-to-run spread on a shared
    host exceeds the largest bound the benchmark may set.
    """
    return {
        "op_p50_ms": 1e3 * _percentile(passed.latencies_s, 50),
        "op_p90_ms": 1e3 * _percentile(passed.latencies_s, 90),
    }


def _summary(workload: str, values: dict, units: dict, result) -> None:
    op = OPERATION[workload]
    aliases = {
        "ops_per_s": f"{op}s_per_s",
        "op_p50_ms": f"{op}_p50_ms",
        "op_p90_ms": f"{op}_p90_ms",
    }
    print(f"{workload}: seed {result['seed']}, trace {result['trace']}")
    for name, value in values.items():
        label = name
        if name in aliases:
            label = f"{aliases[name]} ({name})"
        print(f"  {label:44s} {value:14.6g} {units.get(name, 'ms')}")
    if "op_p90_ms" in values:
        samples = result["latency_samples"]
        print(f"  {'latency samples':44s} {samples:14d} "
              f"({samples - int(0.9 * samples)} beyond p90)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_rate':44s} {failed / attempted:14.6g} fraction "
          f"({failed} of {attempted} operations)")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Before NumPy loads; set-up probes inherit it.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in config[section]}

    workdir = BENCH_DIR / ".work" / f"run-{os.getpid()}"
    workload = workloads.make(args.workload, workdir)
    workload.reference_slices = not args.trace
    inputs = workloads.Inputs(args.seed)
    if args.setup_probe:
        probe = workloads.PassResult()
        try:
            workload.teardown(workload.timed_setup(inputs, probe))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": probe.setup_s[0]}))
        return 0

    spans_path = None
    try:
        # A traced run splits its time over three passes of equal work.
        untraced = workload.run_pass(
            inputs, args.seconds / 3 if args.trace else args.seconds
        )
        passes = [untraced]
        if args.trace:
            # A second untraced pass after the first (which also warms
            # the process) is the base the traced pass is compared with.
            again = workload.run_pass(
                inputs, args.seconds, replay=untraced.replay
            )
            recorder = tracing.SpanRecorder()
            installed = tracing.install(recorder)
            try:
                traced = workload.run_pass(
                    inputs, args.seconds, replay=untraced.replay
                )
            finally:
                installed.remove()
            passes += [again, traced]
            for other in (again, traced):
                if other.signature != untraced.signature:
                    other.fail(
                        other.ops - other.failed,
                        "a replayed pass differs from the first pass",
                    )
            values = tracing.layer_metrics(recorder)
            values.update(_engine_metrics(traced.engines))
            values.update(_serve_metrics(traced))
            values["bench.trace_overhead"] = traced.timed_s / again.timed_s
            RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            spans_path = RESULTS_DIR / (
                f"{args.workload}-seed{args.seed}-{time.time_ns()}"
                ".spans.gz"
            )
            recorder.write(spans_path)
            setup_s = []
        else:
            # Only a process's first set-up is cold; the others come
            # from fresh processes, so program-level caches never leak
            # from one set-up into the next.
            setup_s = untraced.setup_s[:1] + [
                _probe_setup(args) for _ in range(workload.setups - 1)
            ]
            values = _end_to_end(untraced, setup_s)
            latency = _latency(untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = set(units) - set(values)
    if missing:
        sys.exit(f"perfbench: no value for {sorted(missing)}")
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": _environment(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": [q for p in passes for q in p.problems],
        "units_run": untraced.replay,
        "unit_s": untraced.unit_s,
        "setup_samples_s": setup_s,
        "latency_samples": len(untraced.latencies_s),
        "latency_ms": None if args.trace else latency,
        "spans": spans_path.name if spans_path else None,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.time_ns()}.json"
    )).write_text(json.dumps(result, indent=1) + "\n")

    shown = {n: values[n] for n in units}
    if not args.trace:
        shown.update(latency)
    _summary(args.workload, shown, units, result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
