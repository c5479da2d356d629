"""Task executors: one :class:`~repro.sweeps.spec.Point` -> JSON result.

Every figure/table in the paper decomposes into grid cells of a small
number of *task* shapes — a VQE tuning run, an energy evaluation at
near-optimal parameters, a subset-structure count, a mitigation
comparison on fixed circuits, ...  This module is the registry mapping
``point.task`` names to executors, so the sweep runner (inline or
process-pooled, checkpointed, resumable) can execute any benchmark's
grid without knowing what the cells compute.

Executors must be **deterministic pure functions of the point**: every
random draw is seeded from point fields, so a cell's stored record is
bit-identical across runs, worker counts, and shard counts.  The
executors below reproduce the legacy ad-hoc benchmark loops *exactly*
(same constructions, same seeds, same call order); the golden-parity
suite in ``tests/sweeps/test_catalog_parity.py`` pins that equivalence
byte-for-byte.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping

import numpy as np

from .spec import WORKLOAD_TASKS, Point

__all__ = [
    "TASKS",
    "WORKLOAD_TASKS",
    "task",
    "resolve_task",
    "materialize_hamiltonian",
]

#: Task name -> executor ``(point, workload_cache) -> json dict``.
TASKS: dict[str, Callable[[Point, dict], dict]] = {}


def task(name: str):
    """Register an executor under ``name`` (decorator)."""

    def wrap(fn):
        TASKS[name] = fn
        return fn

    return wrap


def resolve_task(name: str) -> Callable[[Point, dict], dict]:
    if name not in TASKS:
        raise ValueError(
            f"unknown task {name!r}; registered tasks: {sorted(TASKS)}"
        )
    return TASKS[name]


def materialize_hamiltonian(description: Mapping):
    """A point's Hamiltonian: explicit ``terms`` or a workload's.

    Deliberately builds *only* the Hamiltonian — structure tasks on
    oversized systems (the 34-qubit Cr2, Fig. 12) must not pay for (or
    be rejected by) ansatz/device construction.
    """
    description = dict(description)
    if "terms" in description:
        from ..hamiltonian import Hamiltonian
        from ..pauli import PauliString

        return Hamiltonian(
            [(1.0, PauliString(t)) for t in description["terms"]],
            name=description.get("name", "explicit"),
        )
    if "key" in description:
        from ..hamiltonian import build_hamiltonian

        return build_hamiltonian(description["key"])
    if "model" in description:
        from ..workloads.registry import spin_hamiltonian_constructor

        return spin_hamiltonian_constructor(description.pop("model"))(
            description.pop("n_qubits"), **description
        )
    from .runner import materialize_workload

    return materialize_workload(description).hamiltonian


def _floats(values) -> list[float]:
    return [float(v) for v in values]


# ----------------------------------------------------------- core tasks


@task("tuning")
def _tuning(point: Point, workload_cache: dict) -> dict:
    from .runner import execute_tuning_point

    return execute_tuning_point(point, workload_cache)


@task("structure")
def _structure(point: Point, workload_cache: dict) -> dict:
    """Spatial subset structure: baseline/JigSaw/VarSaw circuit counts.

    Options: ``window`` (default 2), ``qwc`` (also count merged QWC
    families), ``subset_labels`` (also list the VarSaw subset labels —
    the Fig. 6 worked example), ``cover`` (also count
    ``cover_reduce`` groups explicitly).
    """
    from ..core import count_jigsaw_subsets, count_varsaw_subsets

    options = dict(point.options)
    window = options.get("window", 2)
    hamiltonian = materialize_hamiltonian(point.workload)
    paulis = [p for _, p in hamiltonian.non_identity_terms()]
    result = {
        "terms": int(hamiltonian.num_terms),
        "paulis": len(paulis),
        "baseline": len(hamiltonian.measurement_groups()),
        "jigsaw": int(count_jigsaw_subsets(hamiltonian, window=window)),
        "varsaw": int(count_varsaw_subsets(hamiltonian, window=window)),
    }
    if options.get("qwc"):
        from ..pauli import group_qwc

        result["qwc_families"] = len(
            group_qwc(paulis, hamiltonian.n_qubits)
        )
    if options.get("cover"):
        from ..pauli import cover_reduce

        result["cover_groups"] = len(
            cover_reduce(paulis, hamiltonian.n_qubits)
        )
    if options.get("subset_labels"):
        from ..core import varsaw_subset_plan

        plan = varsaw_subset_plan(paulis, window=window)
        result["subset_labels"] = sorted(
            s.label for s in plan.as_strings()
        )
    return result


@task("commuting_parents")
def _commuting_parents(point: Point, workload_cache: dict) -> dict:
    """Fig. 7: measuring-parent count of one Pauli over a universe."""
    from ..pauli import PauliString, all_strings, measuring_parents

    options = dict(point.options)
    universe = all_strings(
        options.get("n_qubits", 3), options.get("alphabet", "IXZ")
    )
    label = options["label"]
    return {
        "label": label,
        "parents": len(measuring_parents(PauliString(label), universe)),
    }


@task("cost_model")
def _cost_model(point: Point, workload_cache: dict) -> dict:
    """Fig. 8: analytic circuits-per-iteration curves."""
    from ..core import figure8_series

    options = dict(point.options)
    series = figure8_series(
        qubit_counts=options["qubits"],
        sparsities=tuple(options["sparsities"]),
    )
    return {
        "series": {
            label: [[int(q), float(cost)] for q, cost in points]
            for label, points in series.items()
        }
    }


@task("energy")
def _energy(point: Point, workload_cache: dict) -> dict:
    """Energy at near-optimal parameters (Table 1 / Fig. 19 idiom).

    Options: ``params_iterations`` (ideal pre-tune length for
    :func:`repro.analysis.optimal_parameters`), ``trials`` (``None``
    for a single seeded evaluation, else the trial-averaged mean).
    """
    from ..analysis import (
        energy_at_params,
        mean_energy_at_params,
        optimal_parameters,
    )
    from .runner import _prepare_point

    workload, device, _ = _prepare_point(point, workload_cache)
    options = dict(point.options)
    params = optimal_parameters(
        workload, iterations=options.get("params_iterations", 400)
    )
    spec = point.estimator_spec()
    trials = options.get("trials")
    if trials is None:
        energy = energy_at_params(
            spec, workload, params, device=device, seed=point.seed
        )
    else:
        energy = mean_energy_at_params(
            spec, workload, params, trials=trials, device=device
        )
    return {
        "energy": float(energy),
        "ideal_energy": float(workload.ideal_energy),
    }


@task("zne")
def _zne(point: Point, workload_cache: dict) -> dict:
    """Zero-noise extrapolation at near-optimal parameters (§6.8)."""
    from ..analysis import optimal_parameters
    from ..mitigation import zne_energy
    from .runner import _prepare_point

    workload, device, _ = _prepare_point(point, workload_cache)
    options = dict(point.options)
    params = optimal_parameters(
        workload, iterations=options.get("params_iterations", 400)
    )
    energy, _ = zne_energy(
        workload,
        params,
        point.estimator_spec(),
        scales=tuple(options["scales"]),
        seed=point.seed,
        base_device=device,
    )
    return {
        "energy": float(energy),
        "ideal_energy": float(workload.ideal_energy),
    }


# ------------------------------------------------ extension-bench tasks


def split_quality_device():
    """The calibration-gating bench's device: half-perfect readout."""
    from ..noise import (
        DepolarizingGateNoise,
        DeviceModel,
        QubitReadoutError,
        ReadoutErrorModel,
    )

    errors = [2e-4, 5e-4, 0.05, 0.07]
    readout = ReadoutErrorModel(
        [QubitReadoutError(e, 1.4 * e) for e in errors],
        crosstalk_strength=0.1,
    )
    return DeviceModel(
        "split-quality",
        readout,
        DepolarizingGateNoise(error_1q=1e-4, error_2q=2e-3),
    )


@task("calibration_gate")
def _calibration_gate(point: Point, workload_cache: dict) -> dict:
    """Calibration-gated subsetting on the split-quality device (§7.1).

    Options: ``threshold`` (``None`` = plain VarSaw, the "off" row).
    """
    from ..api import Session
    from ..workloads import make_workload

    threshold = dict(point.options).get("threshold")
    device = split_quality_device()
    workload = make_workload("H2-4", device=device)
    params = np.full(workload.ansatz.num_parameters, 0.1)
    exact = Session().estimator("ideal", workload).evaluate(params)

    skipped = 0
    errors, circuits = [], 0
    for seed in range(6):
        session = Session(device, seed=200 + seed)
        if threshold is None:
            estimator = session.estimator("varsaw", workload, shots=2048)
        else:
            estimator = session.estimator(
                "calibration_gated",
                workload,
                shots=2048,
                error_threshold=threshold,
            )
            skipped = estimator.subsets_skipped
        before = session.ledger()
        errors.append(abs(estimator.evaluate(params) - exact))
        circuits = (session.ledger() - before).circuits
    return {
        "error": float(np.mean(errors)),
        "circuits": int(circuits),
        "skipped": int(skipped),
    }


@task("drift_frontier")
def _drift_frontier(point: Point, workload_cache: dict) -> dict:
    """Cost/accuracy frontier of re-calibration policies under drift.

    The point's device description carries the drift schedule
    (``{"preset": ..., "scale": ..., "drift": {...}}``); options pick
    the policy:

    * ``static`` — ``varsaw_max_sparsity``: Globals once at the start,
      then reconstruct against the (increasingly stale) prior forever.
    * ``oracle`` — VarSaw whose scheduler is manually triggered
      whenever the device's true drift epoch changed: the
      impossible-in-practice upper bound that re-calibrates exactly
      when the noise moved and never otherwise.
    * ``online`` — the ``drift_adaptive`` estimator: probe circuits +
      CUSUM detector, paying for its probes on the same ledger.

    A fixed parameter vector is evaluated ``evaluations`` times;
    errors are measured against the noise-free energy at those
    parameters, so the series isolates mitigation quality under drift
    from optimizer movement.
    """
    from ..api import Session
    from ..noise import DriftingDeviceModel
    from .runner import _prepare_point

    options = dict(point.options)
    policy = options.get("policy", "online")
    evaluations = int(options.get("evaluations", 8))
    workload, device, _ = _prepare_point(point, workload_cache)
    if device is None:
        device = workload.device
    params = np.full(workload.ansatz.num_parameters, 0.1)
    exact = Session().estimator("ideal", workload).evaluate(params)

    session = Session(device, seed=point.seed)
    if policy == "static":
        estimator = session.estimator(
            "varsaw_max_sparsity", workload, shots=point.shots
        )
    elif policy == "oracle":
        estimator = session.estimator(
            "varsaw", workload, shots=point.shots,
            initial_period=2**20, max_period=2**20,
        )
    elif policy == "online":
        estimator = session.estimator(
            "drift_adaptive", workload, shots=point.shots,
        )
    else:
        raise ValueError(
            f"unknown drift policy {policy!r}; "
            f"choose from ['online', 'oracle', 'static']"
        )

    drifting = isinstance(device, DriftingDeviceModel)
    last_epoch = device.epoch if drifting else 0
    errors = []
    for _ in range(evaluations):
        if policy == "oracle" and drifting and device.epoch != last_epoch:
            estimator.scheduler.trigger()
            last_epoch = device.epoch
        errors.append(abs(estimator.evaluate(params) - exact))
    ledger = session.ledger()
    detector = getattr(estimator, "detector", None)
    return {
        "policy": policy,
        "evaluations": evaluations,
        "mean_error": float(np.mean(errors)),
        "final_error": float(errors[-1]),
        "circuits": int(ledger.circuits),
        "shots": int(ledger.shots),
        "globals_executed": int(estimator.scheduler.globals_executed),
        "recalibrations": int(getattr(estimator, "recalibrations", 0)),
        "peak_statistic": (
            float(detector.peak_statistic) if detector is not None else 0.0
        ),
    }


@task("gc_grouping")
def _gc_grouping(point: Point, workload_cache: dict) -> dict:
    """QWC vs general-commutation grouping structure (§3.1)."""
    from ..pauli import diagonalized_groups, group_qwc

    hamiltonian = materialize_hamiltonian(point.workload)
    paulis = [p for _, p in hamiltonian.non_identity_terms()]
    qwc_groups = group_qwc(paulis, hamiltonian.n_qubits)
    gc_groups = diagonalized_groups(
        paulis, hamiltonian.n_qubits, method="color"
    )
    return {
        "paulis": len(paulis),
        "qwc_groups": len(qwc_groups),
        "gc_groups": len(gc_groups),
        "qwc_rotation_cx": 0,
        "gc_rotation_cx": int(
            sum(g.entangling_gates for g in gc_groups)
        ),
    }


@task("gc_validity")
def _gc_validity(point: Point, workload_cache: dict) -> dict:
    """Every GC group is internally commuting (checked, counted)."""
    from ..pauli import color_general_commuting

    hamiltonian = materialize_hamiltonian(point.workload)
    paulis = [p for _, p in hamiltonian.non_identity_terms()]
    groups = color_general_commuting(paulis, hamiltonian.n_qubits)
    checked = 0
    for group in groups:
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if not a.commutes_with(b):
                    raise AssertionError(
                        f"non-commuting pair in GC group: {a} {b}"
                    )
                checked += 1
    return {"groups": len(groups), "pairs_checked": checked}


@task("gc_end_to_end")
def _gc_end_to_end(point: Point, workload_cache: dict) -> dict:
    """QWC vs GC noisy energy error at fixed params (§3.1, measured).

    Options: ``regime`` ("standard" | "10x gate noise"),
    ``estimator`` ("QWC baseline" | "GC estimator").
    """
    from ..api import Session
    from ..noise import SimulatorBackend, ibmq_mumbai_like
    from ..workloads import make_workload

    options = dict(point.options)
    regime = options["regime"]
    kind = {
        "QWC baseline": "baseline",
        "GC estimator": "gc",
    }[options["estimator"]]
    workload = make_workload("LiH-6")
    params = np.full(workload.ansatz.num_parameters, 0.09)
    exact = Session().estimator("ideal", workload).evaluate(params)
    device = ibmq_mumbai_like()
    errors = []
    circuits = 0
    for seed in range(5):
        backend = SimulatorBackend(device, seed=100 + seed)
        if regime == "10x gate noise":
            backend.device = device.with_noise_scale(1.0)
            backend.device.gate_noise.scale = 10.0
        estimator = Session(backend=backend).estimator(
            kind, workload, shots=2048
        )
        errors.append(abs(estimator.evaluate(params) - exact))
        circuits = estimator.circuits_per_evaluation
    return {
        "exact": float(exact),
        "error": float(np.mean(errors)),
        "circuits": int(circuits),
    }


@task("readout_placement")
def _readout_placement(point: Point, workload_cache: dict) -> dict:
    """Best-qubit vs default measurement placement (Section 1)."""
    from ..noise import ibmq_mumbai_like

    window = dict(point.options)["window"]
    readout = ibmq_mumbai_like().readout
    default = [
        readout.qubit_errors[q].mean_error for q in range(window)
    ]
    best = [
        readout.qubit_errors[q].mean_error
        for q in readout.best_qubits(window)
    ]
    return {
        "window": int(window),
        "default": float(np.mean(default)),
        "best": float(np.mean(best)),
        "gain": float(np.mean(default)) / float(np.mean(best)),
    }


@task("routing")
def _routing(point: Point, workload_cache: dict) -> dict:
    """SWAP cost of one ansatz entanglement type on heavy-hex."""
    from ..ansatz import EfficientSU2
    from ..layout import (
        noise_aware_layout,
        noise_aware_path_layout,
        route_circuit,
    )
    from ..noise import ibmq_mumbai_like

    options = dict(point.options)
    entanglement = options["entanglement"]
    n_qubits = options.get("n_qubits", 6)
    reps = options.get("reps", 2)
    device = ibmq_mumbai_like()
    coupling = device.coupling_map
    ansatz = EfficientSU2(n_qubits, reps=reps, entanglement=entanglement)
    bound = ansatz.bind(np.zeros(ansatz.num_parameters))
    if entanglement == "full":
        layout = noise_aware_layout(n_qubits, coupling, device.readout)
    else:
        layout = noise_aware_path_layout(
            n_qubits, coupling, device.readout
        )
    routed = route_circuit(bound, coupling, layout)
    return {
        "entanglement": entanglement,
        "logical_cx": int(bound.num_two_qubit_gates),
        "swaps": int(routed.swaps_inserted),
        "native_cx": int(bound.num_two_qubit_gates + routed.overhead),
    }


def _ghz(n):
    from ..circuits import Circuit

    qc = Circuit(n)
    qc.h(0)
    for q in range(n - 1):
        qc.cx(q, q + 1)
    qc.measure_all()
    return qc


def _ghz_target(n):
    from ..sim import PMF

    probs = np.zeros(2**n)
    probs[0] = probs[-1] = 0.5
    return PMF(probs)


@task("mitigation_shootout")
def _mitigation_shootout(point: Point, workload_cache: dict) -> dict:
    """Every circuit-level technique on one noisy GHZ workload."""
    from ..engine import CircuitSpec, shared_engine
    from ..mitigation import (
        M3Mitigator,
        MatrixMitigator,
        invert_and_measure,
        jigsaw_mitigate,
    )
    from ..noise import SimulatorBackend, ibmq_mumbai_like

    options = dict(point.options)
    n_qubits = options["n_qubits"]
    shots = options.get("shots", 8192)
    scale = options.get("noise_scale", 2.0)
    device = ibmq_mumbai_like(scale=scale)
    circuit = _ghz(n_qubits)
    target = _ghz_target(n_qubits)

    def fresh():
        return SimulatorBackend(device, seed=37)

    def raw_counts(backend):
        return shared_engine(backend).run_spec(CircuitSpec(circuit, shots))

    results = {}

    raw = raw_counts(fresh()).to_pmf()
    results["raw"] = [float(raw.tvd(target)), 1]

    backend = fresh()
    averaged = invert_and_measure(backend, circuit, shots)
    results["bias-aware"] = [float(averaged.tvd(target)), 2]

    backend = fresh()
    counts = raw_counts(backend)
    mbm = MatrixMitigator.from_device(
        backend, range(n_qubits), n_qubits
    )
    results["MBM"] = [
        float(mbm.mitigate_pmf(counts.to_pmf()).tvd(target)), 1
    ]

    backend = fresh()
    counts = raw_counts(backend)
    m3 = M3Mitigator.from_device(backend, range(n_qubits), n_qubits)
    results["M3"] = [float(m3.mitigate_counts(counts).tvd(target)), 1]

    backend = fresh()
    jig = jigsaw_mitigate(backend, circuit, shots=shots, window=2)
    results["JigSaw"] = [
        float(jig.output.tvd(target)), int(jig.circuits_executed)
    ]
    return results


@task("mitigation_stacking")
def _mitigation_stacking(point: Point, workload_cache: dict) -> dict:
    """M3-corrected Globals inside JigSaw (Fig. 18 per circuit)."""
    from ..mitigation import (
        M3Mitigator,
        bayesian_reconstruct,
        jigsaw_mitigate,
    )
    from ..noise import SimulatorBackend, ibmq_mumbai_like

    options = dict(point.options)
    n = options.get("n_qubits", 6)
    shots = options.get("shots", 8192)
    device = ibmq_mumbai_like(scale=options.get("noise_scale", 2.0))
    target = _ghz_target(n)
    backend = SimulatorBackend(device, seed=41)
    jig = jigsaw_mitigate(backend, _ghz(n), shots=shots, window=2)
    m3 = M3Mitigator.from_device(backend, range(n), n)
    corrected_global = m3.mitigate_pmf(jig.global_pmf)
    stacked = bayesian_reconstruct(corrected_global, jig.local_pmfs)
    return {
        "jigsaw": float(jig.output.tvd(target)),
        "jigsaw+m3 global": float(stacked.tvd(target)),
    }


def _quench_hamiltonian(options: Mapping):
    from ..hamiltonian.tfim import tfim_hamiltonian

    return tfim_hamiltonian(
        options.get("n_qubits", 5),
        coupling=options.get("coupling", 1.0),
        field=options.get("field", 1.2),
    )


@task("quench")
def _quench(point: Point, workload_cache: dict) -> dict:
    """TFIM quench magnetization: exact / noisy / JigSaw at one time."""
    from ..engine import CircuitSpec, shared_engine
    from ..mitigation import jigsaw_mitigate
    from ..noise import SimulatorBackend, ibmq_mumbai_like
    from ..sim.statevector import probabilities, zero_state
    from ..trotter import (
        average_magnetization,
        evolve_exact,
        trotter_circuit,
    )

    options = dict(point.options)
    n_qubits = options.get("n_qubits", 5)
    shots = options.get("shots", 8192)
    t = options["t"]
    hamiltonian = _quench_hamiltonian(options)
    device = ibmq_mumbai_like(scale=options.get("noise_scale", 2.0))
    exact = average_magnetization(
        probabilities(evolve_exact(hamiltonian, t, zero_state(n_qubits))),
        n_qubits,
    )
    circuit = trotter_circuit(
        hamiltonian, t, max(1, round(8 * t)), order=2
    )
    circuit.measure_all()
    backend = SimulatorBackend(device, seed=17)
    counts = shared_engine(backend).run_spec(CircuitSpec(circuit, shots))
    noisy = average_magnetization(counts.to_pmf().probs, n_qubits)
    backend = SimulatorBackend(device, seed=17)
    mitigated = average_magnetization(
        jigsaw_mitigate(
            backend, circuit, shots=shots, window=2
        ).output.probs,
        n_qubits,
    )
    return {
        "t": float(t),
        "exact": float(exact),
        "noisy": float(noisy),
        "jigsaw": float(mitigated),
    }


@task("trotter_error")
def _trotter_error(point: Point, workload_cache: dict) -> dict:
    """Product-formula infidelity at one step count (orders 1 and 2)."""
    from ..hamiltonian.tfim import tfim_hamiltonian
    from ..sim.statevector import run_statevector
    from ..trotter import evolve_exact, trotter_circuit

    n_steps = dict(point.options)["steps"]
    hamiltonian = tfim_hamiltonian(4, coupling=1.0, field=0.9)
    rng = np.random.default_rng(7)
    state = rng.normal(size=16) + 1j * rng.normal(size=16)
    state /= np.linalg.norm(state)
    exact = evolve_exact(hamiltonian, 1.0, state)
    result = {"steps": int(n_steps)}
    for order in (1, 2):
        circuit = trotter_circuit(hamiltonian, 1.0, n_steps, order=order)
        evolved = run_statevector(circuit, initial_state=state.copy())
        result[f"order{order}"] = float(
            1.0 - abs(np.vdot(evolved, exact))
        )
    return result


@task("quench_sweep")
def _quench_sweep(point: Point, workload_cache: dict) -> dict:
    """Quench sweep with temporally sparse Globals (§7.3 end to end)."""
    from ..noise import SimulatorBackend, ibmq_mumbai_like
    from ..sim.statevector import probabilities, zero_state
    from ..trotter import (
        average_magnetization,
        evolve_exact,
        sparse_quench_sweep,
    )

    options = dict(point.options)
    n_qubits = options.get("n_qubits", 5)
    times = options["times"]
    hamiltonian = _quench_hamiltonian(options)
    device = ibmq_mumbai_like(scale=options.get("noise_scale", 2.0))
    exact = [
        average_magnetization(
            probabilities(
                evolve_exact(hamiltonian, t, zero_state(n_qubits))
            ),
            n_qubits,
        )
        for t in times
    ]
    backend = SimulatorBackend(device, seed=29)
    sweep = sparse_quench_sweep(
        backend,
        hamiltonian,
        tuple(times),
        shots=options.get("shots", 4096),
        global_period=options["period"],
    )
    mags = [
        average_magnetization(o.probs, n_qubits) for o in sweep.outputs
    ]
    return {
        "error": float(
            np.mean([abs(m - e) for m, e in zip(mags, exact)])
        ),
        "circuits": int(sweep.circuits_executed),
        "globals": int(sweep.globals_executed),
    }


@task("tuner_tuning")
def _tuner_tuning(point: Point, workload_cache: dict) -> dict:
    """Classical tuner ablation under VarSaw on noisy H2-4 (§5.1)."""
    from ..api import Session
    from ..noise import ibmq_mumbai_like
    from ..optimizers import SPSA, ImFil, NelderMead
    from ..vqe import run_vqe
    from ..workloads import make_workload

    options = dict(point.options)
    tuner_name = options["tuner"]
    iterations = options["iterations"]
    tuner = {
        "SPSA": lambda: SPSA(seed=19),
        "ImFil": lambda: ImFil(),
        "NelderMead": lambda: NelderMead(initial_step=0.3),
    }[tuner_name]()
    workload = make_workload("H2-4")
    start = np.full(workload.ansatz.num_parameters, 0.1)
    session = Session(ibmq_mumbai_like(scale=2.0), seed=19)
    estimator = session.estimator("varsaw", workload, shots=512)
    start_energy = estimator.evaluate(start)
    result = run_vqe(
        estimator,
        optimizer=tuner,
        max_iterations=iterations,
        initial_params=start,
    )
    return {
        "start": float(start_energy),
        "energy": float(result.energy),
        "evals": int(result.iterations),
        "ideal_energy": float(workload.ideal_energy),
    }


@task("engine_replay")
def _engine_replay(point: Point, workload_cache: dict) -> dict:
    """Replay the repeated-parameter H2-4 VarSaw trace through the
    execution engine (throughput bench).

    Options: ``cache`` (False disables memoization),
    ``trace_points``/``trace_repeats``.
    The evaluate-loop wall clock is measured *inside* the task (it is
    the bench's reported quantity) as the best of three replays, each
    in a fresh session with the same seeds; the replays must agree,
    and the first one's counters are recorded.  The time is volatile
    and masked by the parity suite.
    """
    from ..api import Session
    from ..engine import EngineConfig
    from ..noise import SimulatorBackend, ibmq_mumbai_like
    from ..vqe import initial_parameters
    from ..workloads import make_workload

    class UnbatchedBackend(SimulatorBackend):
        """The direct row's per-spec reference: nothing is shared.

        Each readout of a prepared state evolves the state alone, and
        each row is finished alone with no noise key, so no finisher
        stage outlives its row.
        """

        def state_rows(self, state, suffix, readouts):
            rows = []
            for readout in readouts:
                rows += super().state_rows(state, suffix, [readout])
            return rows

        def exact_pmfs_from_probs_batch(self, rows, noise_key=None):
            pmfs = []
            for row in rows:
                pmfs += super().exact_pmfs_from_probs_batch([row])
            return pmfs

    options = dict(point.options)
    trace_points = options.get("trace_points", 12)
    trace_repeats = options.get("trace_repeats", 3)
    device = ibmq_mumbai_like(scale=2.0)
    workload = make_workload("H2-4")
    rng = np.random.default_rng(21)
    theta = initial_parameters(workload.ansatz.num_parameters, seed=21)
    points = []
    for _ in range(trace_points):
        theta = theta + rng.normal(
            0.0, 0.05, size=workload.ansatz.num_parameters
        )
        points.append(theta.copy())
    trace = points * trace_repeats

    def replay() -> tuple[dict, float]:
        """One replay in a fresh session: its counters and wall clock."""
        if options.get("cache", True):
            session = Session(device, seed=7, engine=EngineConfig())
        else:
            # The "direct" row: no memoization of any kind
            # (cache_size=0) over a backend that shares no work between
            # specs, so the speedup column measures everything the
            # engine adds.
            session = Session(
                backend=UnbatchedBackend(device, seed=7),
                engine=EngineConfig(cache_size=0),
            )
        estimator = session.estimator("varsaw", workload, shots=256)
        start = time.perf_counter()
        energies = [estimator.evaluate(theta) for theta in trace]
        elapsed = time.perf_counter() - start
        stats = session.engine.stats
        ledger = session.ledger()
        session.close()
        return {
            "energies": _floats(energies),
            "circuits": int(ledger.circuits),
            "shots": int(ledger.shots),
            "simulations": int(stats.simulations),
            "hit_rate": float(stats.pmf_cache.hit_rate),
            "dedup": int(stats.dedup_coalesced),
        }, elapsed

    # Best of three identical replays, so one slow host spell cannot
    # decide the row's time.
    replays = [replay() for _ in range(3)]
    first = replays[0][0]
    if any(result != first for result, _ in replays[1:]):
        raise RuntimeError(
            "engine replays in fresh sessions with the same seeds "
            "disagree"
        )
    return {
        "energies": first["energies"],
        "seconds": float(min(elapsed for _, elapsed in replays)),
        **{k: v for k, v in first.items() if k != "energies"},
    }


def _stabilizer_bench_circuit(n_qubits: int, layers: int, rng):
    """One random layered Clifford circuit (GHZ prefix + mixing layers).

    Deterministic given ``rng``; every gate has a tableau update, so
    the ``clifford`` backend's fast path covers the whole circuit.
    """
    from ..circuits import Circuit

    circuit = Circuit(n_qubits)
    circuit.h(0)
    for q in range(n_qubits - 1):
        circuit.cx(q, q + 1)
    one_qubit = ("h", "s", "sdg", "x", "z", "sx")
    for _ in range(layers):
        for q in range(n_qubits):
            circuit.append(str(rng.choice(one_qubit)), q)
        for q in range(0, n_qubits - 1, 2):
            circuit.cx(q, q + 1)
        for q in range(1, n_qubits - 1, 2):
            circuit.cz(q, q + 1)
    circuit.measure_all()
    return circuit


@task("backend_matrix")
def _backend_matrix(point: Point, workload_cache: dict) -> dict:
    """One stabilizer workload executed on the point's backend.

    The point's ``backend`` field (the :mod:`repro.backends` registry)
    selects the execution path; the task itself is backend-agnostic.
    Runs ``runs`` distinct seeded Clifford circuits of ``layers``
    mixing layers each as one engine batch, and reports the wall clock
    (volatile — masked by the parity suite), the circuit/shot ledger,
    dispatch counters, and the mean all-zeros outcome weight as the
    checksum column.

    Options: ``n_qubits`` (default 8), ``layers`` (default 40),
    ``runs`` (default 6), ``noise_scale`` (default 2.0).
    """
    from ..api import Session
    from ..noise import ibmq_mumbai_like

    options = dict(point.options)
    n_qubits = options.get("n_qubits", 8)
    layers = options.get("layers", 40)
    runs = options.get("runs", 6)
    device = ibmq_mumbai_like(scale=options.get("noise_scale", 2.0))
    rng = np.random.default_rng(point.seed)
    circuits = [
        _stabilizer_bench_circuit(n_qubits, layers, rng)
        for _ in range(runs)
    ]
    session = Session(device, seed=point.seed, backend=point.backend)
    zeros = "0" * n_qubits
    start = time.perf_counter()
    batch = session.engine.new_batch()
    for circuit in circuits:
        batch.submit_circuit(circuit, point.shots)
    zero_weights = [
        counts[zeros] / counts.shots for counts in batch.run()
    ]
    elapsed = time.perf_counter() - start
    ledger = session.ledger()
    session.close()
    backend = session.backend
    return {
        "backend": getattr(backend, "backend_kind", "dense"),
        "seconds": float(elapsed),
        "circuits": int(ledger.circuits),
        "shots": int(ledger.shots),
        "zero_weight": float(np.mean(zero_weights)),
        "stabilizer_runs": int(getattr(backend, "stabilizer_runs", 0)),
        "fallbacks": int(getattr(backend, "dense_fallbacks", 0)),
    }


@task("serve_throughput")
def _serve_throughput(point: Point, workload_cache: dict) -> dict:
    """Multi-tenant serve throughput on one shared VarSaw workload.

    ``tenants`` clients each submit the *same* ``jobs`` distinct
    estimate jobs (a seeded parameter trace) to one
    :class:`~repro.serve.Service` over a throwaway journal.  Each
    tenant's job list is rotated by its index and submission is
    round-robin, so execution — and hence the ledger — spreads across
    tenants while every duplicate coalesces.  Everything here is a
    deterministic function of the point except the wall clock
    (``seconds``/``jobs_per_s``, masked by the parity suite); the
    dedup counters and the ledger-sum invariant are pinned.
    """
    import shutil
    import tempfile

    from ..serve import JobSpec, Service
    from .runner import materialize_workload

    options = dict(point.options)
    tenants = int(options.get("tenants", 1))
    jobs_per_tenant = int(options.get("jobs", 4))
    workload = materialize_workload(point.workload)
    rng = np.random.default_rng(point.seed)
    # A job resolves scheme, payload and shots by the point's own rule,
    # so the point's description passes through as it is.
    jobs = [
        JobSpec(
            workload=dict(point.workload),
            scheme=point.scheme,
            params=_floats(
                rng.normal(0.0, 0.1, workload.ansatz.num_parameters)
            ),
            shots=point.shots,
            seed=point.seed,
            estimator=point.estimator,
        )
        for _ in range(jobs_per_tenant)
    ]
    names = [f"tenant{t}" for t in range(tenants)]

    root = tempfile.mkdtemp(prefix="repro-serve-bench-")
    try:
        with Service(root, coalesce_window=0.0) as service:
            start = time.perf_counter()
            for step in range(jobs_per_tenant):
                for t, name in enumerate(names):
                    service.submit(
                        name, jobs[(step + t) % jobs_per_tenant]
                    )
            service.drain()
            elapsed = time.perf_counter() - start
            stats = service.coalescer.stats
            engine = service.coalescer.engine_totals()
            charges = service.budget.totals()
            submitted = tenants * jobs_per_tenant
            return {
                "tenants": tenants,
                "submitted": submitted,
                "executed": int(stats.executed),
                "coalesced": int(stats.coalesced),
                "served_from_db": int(stats.served_from_db),
                "cross_tenant_dedup": int(stats.cross_tenant_dedup),
                "dedup_rate": float(
                    1.0 - stats.executed / submitted
                ),
                "circuits": int(engine["circuits"]),
                "shots": int(engine["shots"]),
                "tenant_circuits": int(charges.circuits),
                "tenant_shots": int(charges.shots),
                "ledger_match": bool(
                    charges.circuits == engine["circuits"]
                    and charges.shots == engine["shots"]
                ),
                "seconds": float(elapsed),
                "jobs_per_s": float(submitted / elapsed),
            }
    finally:
        shutil.rmtree(root, ignore_errors=True)


@task("dist_scaling")
def _dist_scaling(point: Point, workload_cache: dict) -> dict:
    """Sharded-sweep scaling probe on a mixed tuning + Trotter grid.

    Runs one inner sweep — ``tuning_seeds`` cheap H2-4 tuning cells
    plus one ``trotter_error`` cell per entry of ``trotter_steps`` —
    into a throwaway store, serially when ``shards <= 1`` and through
    :func:`repro.dist.shard.run_sharded` otherwise.  The returned
    ``digest`` is the canonical store digest
    (:func:`repro.dist.diff.store_digest`), so rows with different
    shard counts pin record identity against each other; ``duplicates``
    pins that work-stealing never double-*records* a point.  Only the
    wall clock (``seconds``, masked by the parity suite) varies between
    runs.
    """
    import shutil
    import tempfile

    from ..dist.diff import store_digest
    from .runner import run_sweep
    from .store import ResultStore

    options = dict(point.options)
    shards = int(options.get("shards", 1))
    seeds = int(options.get("tuning_seeds", 2))
    iterations = int(options.get("tuning_iterations", 4))
    steps = list(options.get("trotter_steps", [1, 2]))
    inner = [
        Point(
            workload={"key": "H2-4"},
            scheme="baseline",
            seed=seed,
            shots=64,
            max_iterations=iterations,
        )
        for seed in range(seeds)
    ] + [
        Point(task="trotter_error", options={"steps": int(s)})
        for s in steps
    ]
    root = tempfile.mkdtemp(prefix="repro-dist-bench-")
    try:
        store = ResultStore(f"{root}/store.jsonl")
        start = time.perf_counter()
        report = run_sweep(inner, store, shards=shards)
        elapsed = time.perf_counter() - start
        stats = dict(report.shard_stats)
        # run_sharded's count already includes the coordinator's
        # inline pass over points no shard completed.
        executions = int(stats.get("executions", len(report.executed)))
        points = len(inner)
        return {
            "shards": shards,
            "points": points,
            "records": len(store),
            "executions": executions,
            "duplicates": max(0, executions - points),
            "stolen": int(stats.get("stolen", 0)),
            "digest": store_digest(store),
            "seconds": float(elapsed),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


@task("term_selective")
def _term_selective(point: Point, workload_cache: dict) -> dict:
    """Term-selective mitigation trade-off at one mass fraction."""
    from ..analysis import optimal_parameters
    from ..api import Session
    from .runner import _prepare_point

    options = dict(point.options)
    fraction = options["fraction"]
    workload, device, _ = _prepare_point(point, workload_cache)
    params = optimal_parameters(
        workload, iterations=options.get("params_iterations", 400)
    )
    ideal = Session(seed=0).estimator("ideal", workload).evaluate(params)
    estimator = Session(device, seed=point.seed).estimator(
        "selective",
        workload,
        shots=point.shots,
        global_mode="always",
        mass_fraction=fraction,
    )
    energy = estimator.evaluate(params)
    return {
        "fraction": float(fraction),
        "subsets": int(estimator.circuits_per_subset_pass),
        "energy": float(energy),
        "ideal_energy": float(ideal),
        "error": float(abs(energy - ideal)),
    }


@task("phase_selective")
def _phase_selective(point: Point, workload_cache: dict) -> dict:
    """Phase-gated mitigation: endgame-only vs always-on tuning."""
    from ..analysis import optimal_parameters
    from ..api import Session
    from ..optimizers import SPSA
    from ..vqe import run_vqe
    from .runner import _prepare_point

    options = dict(point.options)
    iterations = options["iterations"]
    workload, device, _ = _prepare_point(point, workload_cache)
    params0 = optimal_parameters(
        workload, iterations=options.get("params_iterations", 400)
    )
    phase = {}
    if options["policy"] == "endgame":
        phase = {
            "phase_evaluations": 2 * iterations, "phase_start": 0.5,
        }
    estimator = Session(device, seed=point.seed).estimator(
        "selective", workload, shots=point.shots, **phase
    )
    result = run_vqe(
        estimator,
        optimizer=SPSA(a=0.3, seed=point.seed),
        max_iterations=iterations,
        initial_params=params0,
        seed=point.seed,
    )
    return {
        "energy": float(result.energy),
        "circuits": int(result.circuits_executed),
    }
