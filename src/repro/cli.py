"""Command-line interface.

Gives the repository's main workflows one-line entry points::

    python -m repro list                      # workloads and schemes
    python -m repro kinds                     # estimator registry listing
    python -m repro backends                  # execution-backend registry
    python -m repro subsets                   # Fig. 12-style report
    python -m repro run CH4-6 --scheme varsaw --budget 20000
    python -m repro run H2-4 --scheme selective --mass-fraction 0.85
    python -m repro run H2-4 --scheme baseline --backend density
    python -m repro characterize --device ibmq_mumbai_like
    python -m repro grouping LiH-6            # QWC vs GC report (§3.1)
    python -m repro qaoa --nodes 6            # VarSaw on MaxCut (§7.3)
    python -m repro route --qubits 6          # routing cost on heavy-hex
    python -m repro sweep grid.json --resume  # checkpointed sweep
    python -m repro serve --journal run1      # multi-tenant service
    python -m repro submit --tenant alice --workload H2-4 --wait
    python -m repro jobs --journal run1       # offline journal listing
    python -m repro reproduce --only fig8,table3 --workers 4
                                              # regenerate paper grids
    python -m repro --trace run.trace.jsonl run H2-4 --scheme varsaw
    python -m repro trace run.trace.jsonl     # span-tree timing report

Everything the CLI does is a thin veneer over the public API —
estimators are constructed through :class:`repro.api.Session`, exactly
as library code does — so scripts can graduate to the library without
relearning concepts.
"""

from __future__ import annotations

import argparse
import sys

from . import obs
from .analysis import sparkline
from .api import ESTIMATORS, Session
from .backends import BACKENDS, backend_kinds
from .core import count_jigsaw_subsets, count_varsaw_subsets
from .engine import EngineConfig
from .hamiltonian import MOLECULES, build_hamiltonian, molecule_keys
from .noise import (
    DEVICE_PRESETS,
    SCHEDULE_KINDS,
    DriftingDeviceModel,
    SimulatorBackend,
    characterize_readout,
    make_schedule,
)
from .optimizers import SPSA
from .vqe import run_vqe
from .workloads import ESTIMATOR_KINDS, make_workload

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VarSaw reproduction: VQE with measurement error "
        "mitigation (ASPLOS 2023)",
    )
    parser.add_argument(
        "--log-level", default="warning", choices=obs.LOG_LEVELS,
        help="stdlib logging level for the repro.* loggers",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="journal tracing spans to this JSONL file "
        "(inspect with 'repro trace PATH')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, schemes, and devices")

    sub.add_parser(
        "kinds",
        help="list every registered estimator kind with its typed "
        "parameters and defaults",
    )

    sub.add_parser(
        "backends",
        help="list every registered execution backend with its typed "
        "parameters and defaults",
    )

    subsets = sub.add_parser(
        "subsets", help="spatial-reduction report (Fig. 12)"
    )
    subsets.add_argument(
        "--all", action="store_true",
        help="include the 34-qubit Cr2 workload",
    )
    subsets.add_argument(
        "--window", type=int, default=2, help="subset window size"
    )

    run = sub.add_parser(
        "run",
        help="run one VQE tuning experiment (see 'repro kinds' for "
        "every scheme's knobs)",
    )
    run.add_argument("workload", help="Table 2 key, e.g. CH4-6")
    run.add_argument(
        "--scheme", default="varsaw", choices=ESTIMATOR_KINDS,
    )
    run.add_argument("--iterations", type=int, default=100)
    run.add_argument("--budget", type=int, default=None,
                     help="stop after this many executed circuits")
    run.add_argument("--shots", type=int, default=256)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--noise-scale", type=float, default=2.0)
    run.add_argument("--reps", type=int, default=2)
    run.add_argument(
        "--entanglement", default="full",
        choices=("full", "linear", "circular", "asymmetric"),
    )
    run.add_argument(
        "--drift", default=None, choices=sorted(SCHEDULE_KINDS),
        help="apply a calibration-drift schedule to the device "
        "(see docs/drift.md; pairs well with --scheme drift_adaptive)",
    )
    run.add_argument(
        "--drift-magnitude", type=float, default=1.0,
        help="fractional rate change at full drift (random_walk: "
        "per-epoch step std)",
    )
    run.add_argument(
        "--drift-period", type=_int_at_least(1), default=32,
        help="circuits per drift epoch (noise is constant within one)",
    )
    run.add_argument("--drift-seed", type=int, default=0,
                     help="random_walk schedule seed")
    _add_scheme_arguments(run)
    _add_engine_arguments(run)

    character = sub.add_parser(
        "characterize", help="readout characterization report"
    )
    character.add_argument(
        "--device", default="ibmq_mumbai_like",
        choices=sorted(DEVICE_PRESETS),
    )
    character.add_argument("--qubits", type=int, default=8)
    character.add_argument("--shots", type=int, default=8192)
    character.add_argument("--noise-scale", type=float, default=1.0)
    character.add_argument("--seed", type=int, default=0)

    grouping = sub.add_parser(
        "grouping", help="QWC vs general-commutation grouping report"
    )
    grouping.add_argument("workload", help="Table 2 key, e.g. LiH-6")

    qaoa = sub.add_parser("qaoa", help="run a QAOA MaxCut experiment")
    qaoa.add_argument("--problem", default="ring",
                      choices=("ring", "regular3"))
    qaoa.add_argument("--nodes", type=int, default=6)
    qaoa.add_argument("--reps", type=int, default=2)
    qaoa.add_argument("--scheme", default="varsaw", choices=ESTIMATOR_KINDS)
    qaoa.add_argument("--iterations", type=int, default=80)
    qaoa.add_argument("--shots", type=int, default=256)
    qaoa.add_argument("--seed", type=int, default=0)
    qaoa.add_argument("--noise-scale", type=float, default=2.0)
    _add_scheme_arguments(qaoa)
    _add_engine_arguments(qaoa)

    route = sub.add_parser(
        "route", help="ansatz routing report on a device topology"
    )
    route.add_argument(
        "--device", default="ibmq_mumbai_like",
        choices=sorted(DEVICE_PRESETS),
    )
    route.add_argument("--qubits", type=int, default=6)
    route.add_argument("--reps", type=int, default=2)

    sweep = sub.add_parser(
        "sweep",
        help="run a declarative experiment sweep with checkpoint/resume",
    )
    sweep.add_argument(
        "spec", help="path to a SweepSpec JSON file (name/base/axes)"
    )
    sweep.add_argument(
        "--out", default=None,
        help="JSONL results store (default: <spec name>.results.jsonl)",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="continue into an existing store, skipping completed points",
    )
    sweep.add_argument(
        "--workers", type=_int_at_least(1), default=1,
        help="points executed concurrently on a process pool "
        "(1: inline, in this process)",
    )
    sweep.add_argument(
        "--limit", type=_int_at_least(0), default=None,
        help="execute at most this many pending points",
    )
    sweep.add_argument(
        "--shards", type=_int_at_least(1), default=1,
        help="partition pending points across this many shard worker "
        "subprocesses (per-shard JSONL stores, journaled claim queue "
        "with work-stealing, coordinator merge; records byte-identical "
        "to a serial run)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant estimation service over HTTP "
        "(durable journal, request coalescing, tenant budgets)",
    )
    serve.add_argument(
        "--journal", default="serve-journal",
        help="journal directory (queue.jsonl + results.jsonl); "
        "reopening resumes completed work with zero re-execution",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8753)
    serve.add_argument(
        "--max-batch", type=_int_at_least(1), default=32,
        help="most requests coalesced into one shared batch",
    )
    serve.add_argument(
        "--coalesce-window", type=float, default=0.01,
        help="seconds the worker waits for concurrent submissions "
        "to coalesce before taking a batch",
    )
    serve.add_argument(
        "--budget-circuits", type=_int_at_least(1), default=None,
        help="per-tenant executed-circuit cap (default: unlimited)",
    )
    serve.add_argument(
        "--budget-shots", type=_int_at_least(1), default=None,
        help="per-tenant shot cap (default: unlimited)",
    )

    submit = sub.add_parser(
        "submit",
        help="submit one estimation/tuning job to a running server",
    )
    submit.add_argument("--url", default="http://127.0.0.1:8753")
    submit.add_argument("--tenant", required=True)
    submit.add_argument(
        "--job", default=None,
        help="path to a JobSpec JSON file (overrides the flag form)",
    )
    submit.add_argument("--workload", default=None,
                        help="Table 2 key, e.g. H2-4")
    submit.add_argument(
        "--kind", default="estimate", choices=("estimate", "tuning"),
    )
    submit.add_argument("--scheme", default="varsaw")
    submit.add_argument("--shots", type=_int_at_least(1), default=256)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--params", default=None,
        help="comma-separated ansatz parameters (estimate jobs; "
        "default: the all-zeros vector)",
    )
    submit.add_argument("--iterations", type=_int_at_least(1), default=100,
                        help="tuning jobs: SPSA iterations")
    submit.add_argument(
        "--device", default=None, choices=sorted(DEVICE_PRESETS),
        help="device preset (default: the workload's device)",
    )
    submit.add_argument("--noise-scale", type=float, default=None)
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job completes and print its result",
    )

    jobs = sub.add_parser(
        "jobs",
        help="list a server's requests (live --url, or offline "
        "--journal for a stopped/killed server)",
    )
    jobs.add_argument("--url", default=None)
    jobs.add_argument(
        "--journal", default=None,
        help="read the journal directory directly instead of a "
        "live server",
    )

    repro = sub.add_parser(
        "reproduce",
        help="regenerate the paper's figure/table grids from the "
        "benchmark catalog (checkpointed, resumable)",
    )
    repro.add_argument(
        "--only", default=None,
        help="comma-separated catalog entries (e.g. fig8,table3); "
        "default: the full catalog",
    )
    repro.add_argument(
        "--list", action="store_true", dest="list_entries",
        help="list catalog entries and exit",
    )
    repro.add_argument(
        "--out", default="reproduce.results.jsonl",
        help="shared JSONL results store for every grid",
    )
    repro.add_argument(
        "--resume", action="store_true",
        help="continue into an existing store, skipping completed points",
    )
    repro.add_argument(
        "--workers", type=_int_at_least(1), default=1,
        help="points executed concurrently on a process pool "
        "(1: inline, in this process)",
    )
    repro.add_argument(
        "--limit", type=_int_at_least(0), default=None,
        help="execute at most this many points across the whole call",
    )
    repro.add_argument(
        "--shards", type=_int_at_least(1), default=1,
        help="partition each grid's pending points across this many "
        "shard worker subprocesses (see 'repro sweep --shards')",
    )
    repro.add_argument(
        "--no-tables", action="store_true",
        help="skip printing the regenerated tables",
    )

    diff = sub.add_parser(
        "store-diff",
        help="compare two results stores up to the volatile timing "
        "fields (exit 1 on any difference)",
    )
    diff.add_argument("left", help="first JSONL results store")
    diff.add_argument("right", help="second JSONL results store")

    worker = sub.add_parser(
        "dist-worker",
        help="serve the distributed-execution wire protocol on a TCP "
        "port (for the remote backend's socket transport)",
    )
    worker.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    worker.add_argument(
        "--port", type=_int_at_least(0), default=7631,
        help="TCP port to listen on (0 picks a free port)",
    )

    trace = sub.add_parser(
        "trace",
        help="report on a trace journal written with --trace or "
        "REPRO_TRACE (span tree, critical path, top self-time)",
    )
    trace.add_argument("trace_file", help="path to a span JSONL journal")
    trace.add_argument(
        "--top", type=_int_at_least(1), default=10,
        help="rows in the top-by-self-time table",
    )
    return parser


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        return value

    return parse


def _add_engine_arguments(parser) -> None:
    """Execution-engine knobs shared by the VQE-running subcommands.

    Defaults are ``None`` so :func:`_engine_config` falls through to
    :class:`~repro.engine.EngineConfig`'s canonical values.
    """
    parser.add_argument(
        "--backend", default=None, metavar="KIND",
        help="execution backend kind (see 'repro backends'; "
        "default: dense)",
    )
    parser.add_argument(
        "--cache-size", type=_int_at_least(0), default=None,
        help="PMF memoization entries; 0 memoizes nothing (no PMFs, "
        "states or compiled plans)",
    )
    parser.add_argument(
        "--cache-bytes", type=_int_at_least(0), default=None,
        help="PMF cache byte budget (default: auto-scale with 2**n_qubits; "
        "0 removes the byte bound)",
    )


def _add_scheme_arguments(parser) -> None:
    """Scheme-specific knobs for the VQE-running subcommands.

    Each flag maps to one field of the scheme's registered
    :class:`~repro.api.EstimatorSpec`; flags left unset fall through to
    the spec's defaults, and a flag the chosen scheme does not accept
    fails with the kind's accepted fields (see ``repro kinds``).
    """
    parser.add_argument(
        "--window", type=_int_at_least(1), default=None,
        help="subset window width (jigsaw/varsaw families)",
    )
    parser.add_argument(
        "--global-mode", default=None,
        choices=("adaptive", "always", "never"),
        help="varsaw Global scheduling mode",
    )
    parser.add_argument(
        "--mass-fraction", type=float, default=None,
        help="selective: coefficient-mass fraction to mitigate",
    )
    parser.add_argument(
        "--error-threshold", type=float, default=None,
        help="calibration_gated: readout-error gate threshold",
    )
    parser.add_argument(
        "--gc-method", default=None, choices=("color", "greedy"),
        help="gc: commuting-family partitioner",
    )


def _scheme_params(args) -> dict:
    """Spec parameters for the scheme flags the user actually set."""
    flags = {
        "window": args.window,
        "global_mode": args.global_mode,
        "mass_fraction": args.mass_fraction,
        "error_threshold": args.error_threshold,
        "method": args.gc_method,
    }
    return {name: value for name, value in flags.items() if value is not None}


def _engine_config(args) -> EngineConfig:
    """The engine flags the user set, over the config defaults.

    ``--cache-size 0`` gives ``EngineConfig(cache_size=0)``, which
    memoizes nothing: no PMFs, statevectors or compiled plans.
    """
    knobs = {}
    if args.cache_size is not None:
        knobs["cache_size"] = args.cache_size
    if args.cache_bytes is not None:
        knobs["cache_bytes"] = args.cache_bytes
    return EngineConfig(**knobs)


def _make_cli_session(args, workload, device):
    """Session + estimator for a run/qaoa invocation's arguments."""
    session = Session(
        device,
        seed=args.seed,
        backend=args.backend,
        engine=_engine_config(args),
    )
    estimator = session.estimator(
        args.scheme, workload, shots=args.shots, **_scheme_params(args)
    )
    return estimator, session


def _print_engine_stats(session) -> None:
    stats = session.engine.stats
    print(
        f"engine: {stats.jobs_submitted} jobs, "
        f"{stats.simulations} simulations, "
        f"cache hit rate {stats.pmf_cache.hit_rate:.1%} "
        f"({stats.pmf_cache.hits}/{stats.pmf_cache.requests})"
    )


def _print_registry_listing(registry) -> None:
    """Shared kind/spec/defaults listing for 'kinds' and 'backends'."""
    for kind in registry.kinds():
        cls = registry.get(kind)
        doc = (cls.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{kind}  ({cls.__name__})")
        if summary:
            print(f"    {summary}")
        defaults = cls()
        for name in cls.field_names():
            print(f"    --  {name} = {getattr(defaults, name)!r}")


def _cmd_kinds(_args) -> int:
    """Every registered estimator kind, its spec, and its defaults."""
    _print_registry_listing(ESTIMATORS)
    print(
        "\nSelect with 'repro run --scheme <kind>' or a sweep Point's "
        "scheme/estimator payload; extend with "
        "@repro.api.register_estimator."
    )
    return 0


def _cmd_backends(_args) -> int:
    """Every registered execution backend and its typed parameters."""
    _print_registry_listing(BACKENDS)
    print(
        "\nSelect with 'repro run --backend <kind>', "
        "Session(backend=<kind>), or a sweep Point's backend field; "
        "extend with @repro.backends.register_backend."
    )
    return 0


def _cmd_list(_args) -> int:
    print("Workloads (Table 2):")
    for key in molecule_keys():
        spec = MOLECULES[key]
        marker = "temporal+spatial" if spec.temporal else "spatial only"
        print(
            f"  {key:<10} {spec.n_qubits:>2} qubits, "
            f"{spec.n_terms:>6} Pauli terms  ({marker})"
        )
    print("\nSchemes:", ", ".join(ESTIMATOR_KINDS))
    print("Devices:", ", ".join(sorted(DEVICE_PRESETS)))
    print("Backends:", ", ".join(backend_kinds()))
    return 0


def _cmd_subsets(args) -> int:
    keys = molecule_keys()
    if not args.all:
        keys = [k for k in keys if k != "Cr2-34"]
    print(
        f"{'workload':<10} {'baseline':>9} {'jigsaw':>8} {'varsaw':>7} "
        f"{'reduction':>10}"
    )
    for key in keys:
        ham = build_hamiltonian(key)
        baseline = len(ham.measurement_groups())
        jig = count_jigsaw_subsets(ham, window=args.window)
        var = count_varsaw_subsets(ham, window=args.window)
        print(
            f"{key:<10} {baseline:>9} {jig:>8} {var:>7} "
            f"{jig / var:>9.1f}x"
        )
    return 0


def _cmd_run(args) -> int:
    if args.workload not in MOLECULES:
        print(
            f"unknown workload {args.workload!r}; try: "
            f"{', '.join(molecule_keys())}",
            file=sys.stderr,
        )
        return 2
    workload = make_workload(
        args.workload, reps=args.reps, entanglement=args.entanglement
    )
    device = workload.device.with_noise_scale(args.noise_scale)
    if args.drift is not None:
        device = DriftingDeviceModel(
            device,
            make_schedule(
                args.drift,
                magnitude=args.drift_magnitude,
                period=args.drift_period,
                seed=args.drift_seed,
            ),
        )
    try:
        estimator, session = _make_cli_session(args, workload, device)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(
        f"{workload.key}: {workload.n_qubits} qubits, "
        f"{workload.hamiltonian.num_terms} terms, "
        f"ideal energy {workload.ideal_energy:.3f}"
    )
    with session:
        result = run_vqe(
            estimator,
            optimizer=SPSA(a=0.3, seed=args.seed),
            max_iterations=args.iterations if args.budget is None else 10**6,
            circuit_budget=args.budget,
            seed=args.seed,
        )
    print(
        f"{args.scheme}: energy = {result.energy:.4f} "
        f"(error {abs(result.energy - workload.ideal_energy):.4f}) "
        f"after {result.iterations} iterations, "
        f"{result.circuits_executed} circuits"
    )
    if result.energy_history:
        trace = result.energy_history[:: max(1, len(result.energy_history) // 60)]
        print("trace:", sparkline([-v for v in trace]))
    fraction = getattr(estimator, "global_fraction", None)
    if fraction is not None:
        print(f"global fraction: {fraction:.3f}")
    recalibrations = getattr(estimator, "recalibrations", None)
    if recalibrations is not None:
        print(
            f"re-calibrations: {recalibrations} "
            f"(detector alarms on {estimator.detector.updates} probes)"
        )
    if args.drift is not None:
        print(
            f"drift: {args.drift} schedule, final epoch "
            f"{device.epoch} (clock {device.clock})"
        )
    _print_engine_stats(session)
    return 0


def _cmd_characterize(args) -> int:
    device = DEVICE_PRESETS[args.device](scale=args.noise_scale)
    qubits = list(range(min(args.qubits, device.n_qubits)))
    backend = SimulatorBackend(device, seed=args.seed)
    report = characterize_readout(backend, qubits, shots=args.shots)
    print(f"{args.device} (scale {args.noise_scale:g}):")
    print(f"{'qubit':>5} {'P(1|0)':>8} {'P(0|1)':>8} {'mean':>8}")
    for q in report.qubits:
        print(
            f"{q.qubit:>5} {q.p01:>8.4f} {q.p10:>8.4f} "
            f"{q.mean_error:>8.4f}"
        )
    print(f"crosstalk inflation: {report.crosstalk_inflation:.2f}x")
    print(f"best qubits: {report.best_qubits(min(4, len(qubits)))}")
    return 0


def _cmd_grouping(args) -> int:
    from .pauli import diagonalized_groups, group_qwc

    if args.workload not in MOLECULES:
        print(
            f"unknown workload {args.workload!r}; try: "
            f"{', '.join(molecule_keys())}",
            file=sys.stderr,
        )
        return 2
    ham = build_hamiltonian(args.workload)
    paulis = [p for _, p in ham.non_identity_terms()]
    qwc = group_qwc(paulis, ham.n_qubits)
    gc = diagonalized_groups(paulis, ham.n_qubits, method="color")
    gc_cx = sum(g.entangling_gates for g in gc)
    print(f"{args.workload}: {len(paulis)} Pauli terms")
    print(f"  QWC groups : {len(qwc):>5}   rotation CX: 0")
    print(f"  GC  groups : {len(gc):>5}   rotation CX: {gc_cx}")
    print(
        f"  GC measures {len(qwc) / len(gc):.1f}x fewer circuits but "
        f"pays {gc_cx} entangling gates per iteration (Section 3.1)."
    )
    return 0


def _cmd_qaoa(args) -> int:
    from .qaoa import make_qaoa_workload

    try:
        workload = make_qaoa_workload(
            args.problem, args.nodes, reps=args.reps
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    device = workload.device.with_noise_scale(args.noise_scale)
    try:
        estimator, session = _make_cli_session(args, workload, device)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(
        f"{workload.key}: QAOA p={args.reps}, max cut "
        f"{-workload.ideal_energy:.0f}"
    )
    with session:
        result = run_vqe(
            estimator,
            max_iterations=args.iterations,
            seed=args.seed,
        )
    print(
        f"{args.scheme}: energy = {result.energy:.4f} "
        f"(ideal {workload.ideal_energy:.1f}) after "
        f"{result.iterations} iterations, "
        f"{result.circuits_executed} circuits"
    )
    _print_engine_stats(session)
    return 0


def _cmd_route(args) -> int:
    import numpy as np

    from .ansatz import ENTANGLEMENT_TYPES, EfficientSU2
    from .layout import (
        noise_aware_layout,
        noise_aware_path_layout,
        route_circuit,
    )

    device = DEVICE_PRESETS[args.device]()
    coupling = device.coupling_map
    if args.qubits > coupling.n_qubits:
        print(
            f"device has only {coupling.n_qubits} qubits",
            file=sys.stderr,
        )
        return 2
    print(
        f"{args.device}: {coupling.n_qubits} qubits, "
        f"{coupling.n_edges} couplings"
    )
    print(f"{'entanglement':<14} {'logical CX':>10} {'SWAPs':>6} "
          f"{'native CX':>10}")
    for entanglement in ENTANGLEMENT_TYPES:
        ansatz = EfficientSU2(
            args.qubits, reps=args.reps, entanglement=entanglement
        )
        bound = ansatz.bind(np.zeros(ansatz.num_parameters))
        if entanglement == "full":
            layout = noise_aware_layout(
                args.qubits, coupling, device.readout
            )
        else:
            layout = noise_aware_path_layout(
                args.qubits, coupling, device.readout
            )
        routed = route_circuit(bound, coupling, layout)
        native = bound.num_two_qubit_gates + routed.overhead
        print(
            f"{entanglement:<14} {bound.num_two_qubit_gates:>10} "
            f"{routed.swaps_inserted:>6} {native:>10}"
        )
    return 0


def _open_store(out, resume: bool):
    """Open (or refuse to clobber) a results store for a CLI run."""
    import pathlib

    from .sweeps import ResultStore

    out = pathlib.Path(out)
    if out.exists() and not resume:
        print(
            f"store {out} already exists; pass --resume to continue it "
            f"(completed points are skipped) or choose another --out",
            file=sys.stderr,
        )
        return None
    store = ResultStore(out)
    report = store.load_report
    if report and (report.corrupt_lines or report.incompatible_records):
        print(
            f"store: ignored {report.corrupt_lines} corrupt lines, "
            f"{report.incompatible_records} incompatible records"
        )
    return store


def _sweep_progress(done, total, point, record, state=None):
    result = record["result"]
    energy = result.get("energy")
    detail = (
        f"energy {energy:.4f} " if isinstance(energy, (int, float))
        else ""
    )
    # Cost-weighted progress: on mixed grids the point count is a poor
    # completion signal (a quench cell is ~100x a tuning cell), so the
    # runner's SweepProgress supplies the estimated cost fraction and
    # a cost-based ETA alongside it.
    extra = ""
    if state is not None and total > done:
        extra = f" {state.cost_fraction:.0%} of est. cost"
        if state.eta_s is not None:
            extra += f", eta {state.eta_s:.0f}s"
    print(
        f"  [{done}/{total}] {point.label()}: {detail}"
        f"({record['wall_time_s']:.2f}s){extra}"
    )


def _print_run_cost(totals: dict, delta: dict) -> None:
    """End-of-run cost summary: executed records + engine metric deltas.

    ``totals`` comes from the stored records (inline, process-pool and
    sharded runs alike); the engine delta comes from this process's
    metrics registry, so it is printed only when nonzero: process-pool
    and shard workers count in their own processes, so the ``engine:``
    line needs ``--workers 1``.
    """
    if totals["points"]:
        line = f"cost: {totals['points']} points in {totals['wall_s']:.1f}s"
        if totals["circuits"] or totals["shots"]:
            line += (
                f", {totals['circuits']} circuits, "
                f"{totals['shots']} shots"
            )
        print(line)
    sims = delta.get("repro_engine_simulations_total", 0)
    hits = delta.get("repro_engine_cache_hits_total", 0)
    if sims or hits:
        rate = hits / (sims + hits)
        print(
            f"engine: {int(sims)} simulations, {int(hits)} cache hits "
            f"({rate:.1%} hit rate), "
            f"{int(delta.get('repro_engine_batches_total', 0))} batches"
        )


def _cmd_sweep(args) -> int:
    from .sweeps import SweepSpec, pivot, run_sweep

    try:
        spec = SweepSpec.from_json_file(args.spec)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load sweep spec {args.spec!r}: {exc}", file=sys.stderr)
        return 2
    out = args.out if args.out else f"{spec.name}.results.jsonl"
    store = _open_store(out, args.resume)
    if store is None:
        return 2
    print(f"sweep '{spec.name}': {len(spec)} points -> {out}")

    before = obs.REGISTRY.snapshot()
    outcome = run_sweep(
        spec, store, progress=_sweep_progress, limit=args.limit,
        workers=args.workers, shards=args.shards,
    )
    print(f"sweep '{spec.name}': {outcome.summary()}")
    _print_run_cost(
        outcome.executed_totals(),
        obs.snapshot_delta(obs.REGISTRY.snapshot(), before),
    )

    hints = spec.report or {}
    rows_path = hints.get("rows")
    cols_path = hints.get("cols")
    records = list(outcome.records.values())
    if rows_path and cols_path and records:
        value = hints.get("value", "result.energy")
        try:
            row_labels, col_labels, cells = pivot(
                records, rows_path, cols_path, value=value
            )
        except (KeyError, TypeError, ValueError) as exc:
            # The sweep itself is checkpointed and complete; a bad
            # report hint must not make the run look failed.
            print(
                f"cannot aggregate report ({exc}); the store at {out} "
                f"is complete",
                file=sys.stderr,
            )
            return 0
        widths = [
            max(len(str(c)), 10) for c in col_labels
        ]
        print(f"\n{rows_path} \\ {cols_path} ({value})")
        print(
            " " * 12
            + "  ".join(str(c).rjust(w) for c, w in zip(col_labels, widths))
        )
        for row in row_labels:
            cells_text = [
                (
                    f"{cells[(row, col)]:.4f}"
                    if (row, col) in cells
                    else "-"
                ).rjust(width)
                for col, width in zip(col_labels, widths)
            ]
            print(str(row).ljust(12) + "  ".join(cells_text))
    return 0


def _cmd_reproduce(args) -> int:
    from .sweeps.catalog import CATALOG, reproduce
    from .sweeps.runner import record_totals

    if args.list_entries:
        width = max(len(name) for name in CATALOG)
        for entry in CATALOG.values():
            print(
                f"{entry.name:<{width}}  {entry.figure:<20} "
                f"{entry.title}"
            )
        return 0

    if args.only:
        names = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = [name for name in names if name not in CATALOG]
        if unknown:
            print(
                f"unknown catalog entries: {', '.join(unknown)}; "
                f"see 'repro reproduce --list'",
                file=sys.stderr,
            )
            return 2
    else:
        names = list(CATALOG)

    store = _open_store(args.out, args.resume)
    if store is None:
        return 2
    print(
        f"reproduce: {len(names)} grids -> {args.out} "
        f"({len(store)} points already stored)"
    )
    before = obs.REGISTRY.snapshot()
    outcomes = reproduce(
        names, store, limit=args.limit, progress=_sweep_progress,
        workers=args.workers, shards=args.shards,
    )
    for outcome in outcomes:
        print(outcome.summary())
        if not args.no_tables and outcome.complete:
            for table in outcome.tables():
                print(table.render())
    executed = sum(len(o.executed) for o in outcomes)
    skipped = sum(o.skipped for o in outcomes)
    incomplete = [o.entry.name for o in outcomes if not o.complete]
    print(
        f"\nreproduce: executed {executed} points, skipped {skipped} "
        f"already complete"
        + (f"; incomplete grids: {', '.join(incomplete)}"
           if incomplete else "")
    )
    _print_run_cost(
        record_totals(
            record
            for outcome in outcomes
            for record in outcome.records
            if record.get("fingerprint") in outcome.executed
        ),
        obs.snapshot_delta(obs.REGISTRY.snapshot(), before),
    )
    return 0


def _print_serve_status(status: dict) -> None:
    """Render a ServiceStatus dict (shutdown summary / `repro jobs`)."""
    print(
        f"requests: {status['requests']} "
        f"({status['complete']} complete, {status['pending']} pending, "
        f"{status['failed']} failed)"
    )
    print(
        f"dedup: {status['executed']} executed, "
        f"{status['coalesced']} coalesced in-batch, "
        f"{status['served_from_db']} served from results DB, "
        f"{status['cross_tenant_dedup']} cross-tenant"
    )
    engine = status["engine"]
    print(
        f"engine: {engine['circuits']} circuits, "
        f"{engine['shots']} shots, "
        f"{engine['simulations']} simulations, "
        f"cache {engine['pmf_cache_hits']}/"
        f"{engine['pmf_cache_requests']} hits "
        f"({engine['pmf_cache_evictions']} evicted) "
        f"across {status['sessions']} sessions"
    )
    for tenant, charge in sorted(status["tenants"].items()):
        caps = []
        if charge.get("max_circuits") is not None:
            caps.append(f"cap {charge['max_circuits']} circuits")
        if charge.get("max_shots") is not None:
            caps.append(f"cap {charge['max_shots']} shots")
        suffix = f" ({', '.join(caps)})" if caps else ""
        print(
            f"  tenant {tenant}: {charge['jobs']} jobs, "
            f"{charge['circuits']} circuits, "
            f"{charge['shots']} shots{suffix}"
        )


def _cmd_serve(args) -> int:
    from .serve import Service, TenantQuota, serve_http

    default_quota = None
    if args.budget_circuits is not None or args.budget_shots is not None:
        default_quota = TenantQuota(
            max_circuits=args.budget_circuits,
            max_shots=args.budget_shots,
        )
    service = Service(
        args.journal,
        default_quota=default_quota,
        max_batch=args.max_batch,
        coalesce_window=args.coalesce_window,
    )
    total, pending = service.recovered()
    print(
        f"journal {service.root}: recovered {total} requests "
        f"({total - pending} complete, {pending} pending)"
    )
    try:
        server = serve_http(service, args.host, args.port)
    except OSError as exc:
        print(
            f"cannot bind {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        service.close()
        return 2
    service.start()
    print(
        f"serving on http://{args.host}:{args.port} "
        f"(Ctrl-C to stop; journal survives kill -9; "
        f"Prometheus metrics at /metrics)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        service.close()
        _print_serve_status(service.status().to_dict())
    return 0


def _submit_job_payload(args) -> dict:
    """Build the JobSpec JSON payload from `repro submit` flags."""
    import json

    if args.job is not None:
        with open(args.job, encoding="utf-8") as handle:
            return json.load(handle)
    if args.workload is None:
        raise ValueError("pass --workload KEY or --job FILE")
    job: dict = {
        "workload": {"key": args.workload},
        "kind": args.kind,
        "scheme": args.scheme,
        "shots": args.shots,
        "seed": args.seed,
    }
    if args.params is not None:
        job["params"] = [
            float(text) for text in args.params.split(",") if text.strip()
        ]
    if args.kind == "tuning":
        job["max_iterations"] = args.iterations
    if args.device is not None:
        device: dict = {"preset": args.device}
        if args.noise_scale is not None:
            device["scale"] = args.noise_scale
        job["device"] = device
    elif args.noise_scale is not None:
        raise ValueError("--noise-scale needs --device to scale")
    return job


def _cmd_submit(args) -> int:
    from .serve import JobSpec, request_json

    try:
        payload = _submit_job_payload(args)
        JobSpec.from_dict(payload)  # validate before the round-trip
    except (OSError, TypeError, ValueError) as exc:
        print(f"bad job: {exc}", file=sys.stderr)
        return 2
    try:
        reply = request_json(
            args.url,
            "/submit",
            {"tenant": args.tenant, "job": payload, "wait": args.wait},
        )
    except (RuntimeError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    line = f"{reply['request_id']}  {reply['state']}  {reply['label']}"
    result = reply.get("result")
    if result is not None:
        energy = result["result"].get("energy")
        if energy is not None:
            line += f"  energy {energy:.6f}"
    print(line)
    if reply.get("error"):
        print(f"error: {reply['error']}", file=sys.stderr)
        return 1
    return 0


def _print_job_rows(rows) -> None:
    if not rows:
        print("no requests")
        return
    width = max(len(row["request_id"]) for row in rows)
    tenant_w = max(len(row["tenant"]) for row in rows)
    for row in rows:
        print(
            f"{row['request_id']:<{width}}  "
            f"{row['tenant']:<{tenant_w}}  "
            f"{row['state']:<8}  {row['label']}"
        )


def _cmd_jobs(args) -> int:
    from .serve import request_json

    if (args.url is None) == (args.journal is None):
        print("pass exactly one of --url or --journal", file=sys.stderr)
        return 2
    if args.url is not None:
        try:
            listing = request_json(args.url, "/jobs")
            status = request_json(args.url, "/status")
        except (RuntimeError, OSError) as exc:
            print(str(exc), file=sys.stderr)
            return 1
        _print_job_rows(listing["jobs"])
        print()
        _print_serve_status(status)
        return 0

    # Offline: read the journal pair directly (server stopped/killed).
    import pathlib

    from .serve import JobQueue, JobSpec, ResultsDB

    root = pathlib.Path(args.journal)
    if not root.is_dir():
        print(f"no journal directory at {root}", file=sys.stderr)
        return 2
    queue = JobQueue(root / "queue.jsonl")
    results = ResultsDB(root / "results.jsonl")
    rows = []
    pending = 0
    for entry in queue.records():
        done = entry["job_fingerprint"] in results
        pending += 0 if done else 1
        try:
            label = JobSpec.from_dict(entry["job"]).label()
        except (TypeError, ValueError):
            label = "<invalid job>"
        rows.append(
            {
                "request_id": entry["request_id"],
                "tenant": entry["tenant"],
                "state": "complete" if done else "pending",
                "label": label,
            }
        )
    _print_job_rows(rows)
    print(
        f"\n{len(rows)} journaled requests, {pending} pending "
        f"({len(results)} distinct results stored)"
    )
    return 0


def _cmd_trace(args) -> int:
    import pathlib

    path = pathlib.Path(args.trace_file)
    if not path.exists():
        print(f"no trace journal at {path}", file=sys.stderr)
        return 2
    print(obs.render_trace_report(path, top=args.top))
    return 0


def _cmd_store_diff(args) -> int:
    """Canonical store comparison (the dist byte-identity check)."""
    import pathlib

    from .dist.diff import canonical_records, diff_stores

    for path in (args.left, args.right):
        if not pathlib.Path(path).exists():
            print(f"no results store at {path}", file=sys.stderr)
            return 2
    problems = diff_stores(args.left, args.right)
    if problems:
        for problem in problems:
            print(problem)
        print(f"stores differ: {len(problems)} problems")
        return 1
    count = len(canonical_records(args.left))
    print(f"stores identical: {count} records match")
    return 0


def _cmd_dist_worker(args) -> int:
    """Run a socket wire-protocol worker until interrupted."""
    import time as _time

    from .dist.transport import serve_socket_worker

    server, port = serve_socket_worker(args.host, args.port)
    print(f"dist-worker: serving on {args.host}:{port}")
    try:
        while True:
            _time.sleep(3600)
    except KeyboardInterrupt:
        print("dist-worker: shutting down")
    finally:
        server.close()
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "kinds": _cmd_kinds,
    "backends": _cmd_backends,
    "subsets": _cmd_subsets,
    "run": _cmd_run,
    "characterize": _cmd_characterize,
    "grouping": _cmd_grouping,
    "qaoa": _cmd_qaoa,
    "route": _cmd_route,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "reproduce": _cmd_reproduce,
    "store-diff": _cmd_store_diff,
    "dist-worker": _cmd_dist_worker,
    "trace": _cmd_trace,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    obs.setup_logging(args.log_level)
    if args.trace:
        obs.enable(args.trace)
    try:
        return _COMMANDS[args.command](args)
    finally:
        if obs.enabled():
            # Flush buffered spans (covers --trace and REPRO_TRACE).
            obs.disable()


if __name__ == "__main__":
    raise SystemExit(main())
