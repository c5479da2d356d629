"""Noisy execution backend: statevector simulation + device noise + sampling.

:class:`SimulatorBackend` is the single place circuits get "executed".  It
also keeps the *circuit/shot counters* that the paper's cost metric ("number
of circuits executed on the quantum device") is measured from, so every
experiment reads its cost from the same ledger.

Two execution paths exist:

* :meth:`run` — simulate a full bound circuit.
* :meth:`prepare_state` + :meth:`run_from_state` — VQE executes many
  measurement-basis variants of one ansatz per iteration; preparing the
  ansatz state once and applying only the cheap basis suffix per group is
  an exact optimization (the physics is identical), but each
  ``run_from_state`` still counts as one executed circuit.
"""

from __future__ import annotations

import numpy as np

from ..circuits import Circuit
from ..sim import PMF, Counts, probabilities, run_statevector
from ..sim.plan import CircuitPlan
from .device import DeviceModel, ideal_device
from .readout import ReadoutErrorModel

__all__ = ["SimulatorBackend"]


class SimulatorBackend:
    """Executes circuits against a :class:`~repro.noise.device.DeviceModel`.

    Parameters
    ----------
    device:
        Noise source; ``None`` means a perfectly ideal device.
    seed:
        Seed for the sampling RNG (shot noise).  Experiments that average
        over trials construct one backend per trial seed.
    readout_enabled / gate_noise_enabled:
        Independent kill-switches, used by experiments that isolate
        measurement error from gate error.

    Subclassing (the :mod:`repro.backends` registry)
    ------------------------------------------------
    Alternative execution backends subclass this class and override the
    narrow hooks below — :meth:`circuit_probabilities` (how a full
    circuit becomes ideal outcome probabilities, a function of its
    gates alone: the engine evaluates it once per circuit body and
    batch, whatever the measured qubits), :meth:`noise_gate_load` (the
    gate counts the global depolarizing mix charges) and :meth:`sample`
    (how a PMF becomes counts) — so the noise pipeline, the cost
    ledger, and the engine contract stay shared.  ``backend_kind`` is
    the registry name; the engine mixes it into its cache keys.  A
    subclass with extra PMF-shaping state beyond the device and the
    kill-switches must expose it via a ``pmf_fingerprint_extra() ->
    str`` method (see :func:`repro.engine.device_fingerprint`) so
    memoized PMFs are never shared across configurations.
    """

    #: Registry kind name (see :mod:`repro.backends`); subclasses
    #: override.  Part of the engine's cache key, so two backend kinds
    #: over one device never share memoized PMFs.
    backend_kind = "dense"

    def __init__(
        self,
        device: DeviceModel | None = None,
        seed: int | None = None,
        readout_enabled: bool = True,
        gate_noise_enabled: bool = True,
    ):
        self.device = device if device is not None else ideal_device()
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.readout_enabled = readout_enabled
        self.gate_noise_enabled = gate_noise_enabled
        self.circuits_run = 0
        self.shots_run = 0

    # ------------------------------------------------------------ accounting

    def reset_counters(self) -> None:
        self.circuits_run = 0
        self.shots_run = 0

    def _charge(self, shots: int) -> None:
        self.circuits_run += 1
        self.shots_run += shots
        # Drifting devices measure logical time in charged circuits;
        # the engine charges in submission order after a whole batch's
        # PMFs are computed, so one batch sees one noise state.
        advance = getattr(self.device, "advance_clock", None)
        if advance is not None:
            advance(1)

    def charge(self, shots: int) -> None:
        """Record one executed circuit of ``shots`` shots on the ledger.

        Public so :class:`~repro.engine.ExecutionEngine` can charge per
        submitted spec even when deduplication simulated a circuit once.
        """
        self._charge(shots)

    # ------------------------------------------------------------- execution

    def prepare_state(
        self, circuit: Circuit, plan: CircuitPlan | None = None
    ) -> np.ndarray:
        """Simulate ``circuit`` (ignoring measurement) to a statevector.

        Not charged to the circuit counter: preparation alone is not an
        execution; the charge happens when a measurement run is requested.
        ``plan`` is an optional precompiled plan for the circuit's
        structure (the engine passes its cached one); results are
        bit-identical either way.
        """
        if plan is not None:
            return plan.run(plan.slot_values(circuit))
        return run_statevector(circuit)

    def run(
        self, circuit: Circuit, shots: int, map_to_best: bool = False
    ) -> Counts:
        """Execute a bound circuit and sample its measured qubits.

        ``map_to_best=True`` places the measured qubits on the device's
        best readout lines (what JigSaw does for subset circuits).
        """
        pmf = self.exact_pmf(circuit, map_to_best=map_to_best)
        self._charge(shots)
        return self.sample(pmf, shots, self.rng)

    def run_from_state(
        self,
        state: np.ndarray,
        suffix: Circuit | None,
        measured_qubits,
        shots: int,
        map_to_best: bool = False,
        gate_load: tuple[int, int] = (0, 0),
    ) -> Counts:
        """Execute a cached prepared state + basis-change suffix.

        ``gate_load`` is the (one-qubit, two-qubit) gate count of the state
        preparation, so the depolarizing weight reflects the *full* circuit,
        not just the suffix.
        """
        pmf = self._pmf_from_state(
            state, suffix, measured_qubits, map_to_best, gate_load
        )
        self._charge(shots)
        return self.sample(pmf, shots, self.rng)

    def sample(
        self, pmf: PMF, shots: int, rng: np.random.Generator
    ) -> Counts:
        """Turn one executed circuit's exact PMF into counts.

        The default draws ``shots`` multinomial samples from ``rng``
        (shot noise); analytic backends override this to return
        expected counts instead.  The engine's sampling phase delegates
        here, so overriding it changes batched and direct execution
        consistently.
        """
        return Counts.from_pmf_samples(pmf, shots, rng)

    # ---------------------------------------------------- exact distributions

    def circuit_probabilities(
        self, circuit: Circuit, plan: CircuitPlan | None = None
    ) -> np.ndarray:
        """Ideal (pre-noise) outcome probabilities of a bound circuit.

        The simulation hook subclasses override: the dense default runs
        the statevector engine; the ``clifford`` backend substitutes a
        stabilizer-tableau evaluation for Clifford-only circuits.  The
        noise pipeline downstream (:meth:`exact_pmf`) is shared.
        ``plan`` is an optional precompiled plan for the circuit's
        structure (bit-identical fast path; overriding backends may
        ignore it).
        """
        if plan is not None:
            return probabilities(plan.run(plan.slot_values(circuit)))
        return probabilities(run_statevector(circuit))

    def noise_gate_load(self, circuit: Circuit) -> tuple[int, int]:
        """The (one-qubit, two-qubit) gate counts charged to gate noise.

        The noise pipeline mixes in global depolarizing noise weighted
        by these counts, taken from the *original* circuit (a fused
        ``plan`` never changes the noise).  A backend whose
        :meth:`circuit_probabilities` already applies gate noise
        returns ``(0, 0)`` so it is never applied twice.
        """
        g2 = circuit.num_two_qubit_gates
        return circuit.num_gates - g2, g2

    def exact_pmf(
        self,
        circuit: Circuit,
        map_to_best: bool = False,
        plan: CircuitPlan | None = None,
    ) -> PMF:
        """The exact (noisy) outcome distribution over measured qubits.

        Ideal probabilities from :meth:`circuit_probabilities`, finished
        by the noise pipeline with :meth:`noise_gate_load`.
        """
        if not circuit.measured_qubits:
            raise ValueError("circuit measures no qubits")
        if plan is not None:
            probs = self.circuit_probabilities(circuit, plan=plan)
        else:
            # Keyword-free call keeps pre-plan subclass overrides of
            # circuit_probabilities working unchanged.
            probs = self.circuit_probabilities(circuit)
        return self._pmf_from_probs(
            probs,
            circuit.n_qubits,
            sorted(circuit.measured_qubits),
            map_to_best,
            self.noise_gate_load(circuit),
        )

    def supports_plan_batching(self) -> bool:
        """Whether the engine may simulate this backend via plan batches.

        True only when this instance's ideal-probability computation
        *is* the dense statevector path — a subclass overriding
        :meth:`circuit_probabilities` or :meth:`exact_pmf` (stabilizer
        tableaus, density-matrix channels) computes different bits, so
        the engine must call those hooks once per circuit body instead.
        The noise pipeline must also be inherited, because the engine
        finishes plan batches through
        :meth:`exact_pmfs_from_probs_batch` instead of
        :meth:`_pmf_from_probs`.
        """
        cls = type(self)
        return (
            cls.circuit_probabilities
            is SimulatorBackend.circuit_probabilities
            and cls.exact_pmf is SimulatorBackend.exact_pmf
            and cls._pmf_from_probs is SimulatorBackend._pmf_from_probs
        )

    def supports_suffix_plans(self) -> bool:
        """Whether the engine may apply basis suffixes via compiled plans.

        The engine evolves a prepared state through a cached suffix plan
        and finishes the result through the shared noise pipeline with
        the combined gate load — valid only while this instance inherits
        the dense state-plus-suffix pipeline.
        """
        cls = type(self)
        return (
            cls.pmf_from_state is SimulatorBackend.pmf_from_state
            and cls._pmf_from_state is SimulatorBackend._pmf_from_state
            and cls._pmf_from_probs is SimulatorBackend._pmf_from_probs
        )

    def exact_pmfs_from_probs_batch(self, rows) -> list[PMF]:
        """Vectorized noise pipeline over many ideal probability vectors.

        ``rows`` is a list of ``(probs, n_qubits, measured, map_to_best,
        gate_load)`` tuples with ``measured`` a sorted tuple; the result
        is one PMF per row, in order.  Rows sharing ``(n_qubits,
        measured, map_to_best)`` advance through each pipeline stage —
        normalize, depolarizing mix, marginal, readout — as single
        whole-group NumPy calls whose per-row bits equal
        :meth:`_pmf_from_probs` exactly (elementwise ops broadcast per
        row; axis reductions use the same pairwise order; the readout
        matrix product hits the same GEMM kernel, with the
        one-measured-qubit case looped because alone it would dispatch
        to GEMV and round differently).

        Only the engine calls this, and only on backends whose
        capability checks above confirm the dense pipeline is inherited.
        A device carrying a *subclassed* readout model falls back to the
        scalar pipeline row by row.
        """
        if type(self.device.readout) is not ReadoutErrorModel:
            return [
                self._pmf_from_probs(
                    probs, n, list(measured), map_to_best, gate_load
                )
                for probs, n, measured, map_to_best, gate_load in rows
            ]
        out: list[PMF | None] = [None] * len(rows)
        groups: dict[tuple, list[int]] = {}
        for i, (_, n, measured, map_to_best, _) in enumerate(rows):
            groups.setdefault((n, measured, map_to_best), []).append(i)
        for (n, measured, map_to_best), indices in groups.items():
            pmfs = self._finish_group(
                [rows[i] for i in indices], n, measured, map_to_best
            )
            for i, pmf in zip(indices, pmfs):
                out[i] = pmf
        return out  # type: ignore[return-value]

    def _finish_group(
        self,
        rows: list,
        n: int,
        measured: tuple[int, ...],
        map_to_best: bool,
    ) -> list[PMF]:
        """One same-shape group of :meth:`exact_pmfs_from_probs_batch`."""
        if not measured:
            raise ValueError("no measured qubits")
        batch = len(rows)
        probs = np.stack([np.asarray(row[0], dtype=float) for row in rows])
        if probs.min() < -1e-12:
            raise ValueError("probabilities must be nonnegative")
        probs = np.clip(probs, 0.0, None)
        totals = probs.sum(axis=1)
        if totals.min() <= 0:
            raise ValueError("probabilities sum to zero")
        probs = probs / totals[:, None]
        if self.gate_noise_enabled:
            lams = np.array(
                [self._depolarizing_weight(*row[4]) for row in rows]
            )
            if np.any(lams > 0):
                uniform = PMF.uniform(n).probs
                mixed = (1.0 - lams)[:, None] * probs + lams[:, None] * (
                    uniform[None, :]
                )
                mixed = mixed / mixed.sum(axis=1)[:, None]
                # Rows with zero depolarizing weight skip the mix (and
                # its renormalization) entirely, like the scalar path.
                probs = np.where((lams > 0)[:, None], mixed, probs)
        drop = tuple(ax for ax in range(n) if ax not in measured)
        if drop:
            tensor = probs.reshape((batch,) + (2,) * n)
            probs = tensor.sum(axis=tuple(d + 1 for d in drop))
        m = len(measured)
        probs = probs.reshape(batch, 2**m)
        probs = probs / probs.sum(axis=1)[:, None]
        if self.readout_enabled:
            mapping = self.physical_mapping(list(measured), map_to_best)
            readout = self.device.readout
            matrices = [
                readout.effective_error(
                    mapping[logical], m
                ).confusion_matrix()
                for logical in measured
            ]
            if m == 1:
                matrix = matrices[0]
                probs = np.stack([
                    np.tensordot(matrix, probs[i], axes=([1], [0]))
                    for i in range(batch)
                ])
            else:
                tensor = probs.reshape((batch,) + (2,) * m)
                for axis, matrix in enumerate(matrices):
                    tensor = np.moveaxis(
                        np.tensordot(matrix, tensor, axes=([1], [axis + 1])),
                        0,
                        axis + 1,
                    )
                probs = tensor.reshape(batch, 2**m)
            probs = np.clip(probs, 0.0, None)
            probs = probs / probs.sum(axis=1)[:, None]
        return [PMF._trusted(probs[i], measured) for i in range(batch)]

    def pmf_from_state(
        self,
        state: np.ndarray,
        suffix: Circuit | None,
        measured_qubits,
        map_to_best: bool = False,
        gate_load: tuple[int, int] = (0, 0),
    ) -> PMF:
        """Exact noisy PMF of a prepared state + basis suffix (uncharged)."""
        return self._pmf_from_state(
            state, suffix, measured_qubits, map_to_best, gate_load
        )

    def _pmf_from_state(
        self,
        state: np.ndarray,
        suffix: Circuit | None,
        measured_qubits,
        map_to_best: bool,
        gate_load: tuple[int, int],
    ) -> PMF:
        measured = sorted(int(q) for q in measured_qubits)
        if not measured:
            raise ValueError("no measured qubits")
        n = int(np.log2(state.shape[0]))
        g1, g2 = gate_load
        if suffix is not None:
            state = run_statevector(suffix, initial_state=state)
            s2 = suffix.num_two_qubit_gates
            g1 += suffix.num_gates - s2
            g2 += s2
        return self._pmf_from_probs(
            probabilities(state), n, measured, map_to_best, (g1, g2)
        )

    def _pmf_from_probs(
        self,
        probs: np.ndarray,
        n_qubits: int,
        measured: list[int],
        map_to_best: bool,
        gate_load: tuple[int, int],
    ) -> PMF:
        pmf = PMF(probs, tuple(range(n_qubits)))
        if self.gate_noise_enabled:
            g1, g2 = gate_load
            lam = self._depolarizing_weight(g1, g2)
            if lam > 0:
                pmf = pmf.mix(PMF.uniform(n_qubits, pmf.qubits), lam)
        pmf = pmf.marginal(measured)
        if self.readout_enabled:
            mapping = self.physical_mapping(measured, map_to_best)
            pmf = self.device.readout.apply(pmf, mapping)
        return pmf

    def _depolarizing_weight(self, g1: int, g2: int) -> float:
        gn = self.device.gate_noise
        e1 = min(1.0, gn.error_1q * gn.scale)
        e2 = min(1.0, gn.error_2q * gn.scale)
        return 1.0 - (1.0 - e1) ** g1 * (1.0 - e2) ** g2

    # ---------------------------------------------------------------- mapping

    def physical_mapping(
        self, measured: list[int], map_to_best: bool
    ) -> dict[int, int]:
        """Logical measured qubit -> physical qubit used for readout.

        Identity by default; with ``map_to_best`` the measured qubits land
        on the device's lowest-error readout lines (best line to the first
        measured qubit, and so on).
        """
        if map_to_best:
            best = self.device.readout.best_qubits(len(measured))
            return dict(zip(measured, best))
        for q in measured:
            if q >= self.device.n_qubits:
                raise ValueError(
                    f"logical qubit {q} exceeds device size "
                    f"{self.device.n_qubits}"
                )
        return {q: q for q in measured}

    def __repr__(self) -> str:
        return (
            f"<SimulatorBackend device={self.device.name!r} "
            f"circuits_run={self.circuits_run}>"
        )
