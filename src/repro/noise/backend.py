"""Noisy execution backend: ideal simulation + device noise + sampling.

:class:`SimulatorBackend` is the single place circuits get "executed".  It
also keeps the *circuit/shot counters* that the paper's cost metric ("number
of circuits executed on the quantum device") is measured from, so every
experiment reads its cost from the same ledger.

Execution has two halves:

* the *simulation hooks* —
  :meth:`~SimulatorBackend.circuit_probabilities_batch` (bound
  circuits -> ideal outcome probabilities) and
  :meth:`~SimulatorBackend.prepare_states` (bound circuits ->
  statevectors) — take a whole batch per call, so a backend can share
  work across it (compiled-plan batches, one wire request);
* the *noise finisher* —
  :meth:`~SimulatorBackend.exact_pmfs_from_probs_batch` — turns ideal
  probability rows into exact noisy PMFs (global depolarizing mix,
  marginal, readout channel).  It is the only noise pipeline:
  :meth:`~SimulatorBackend.exact_pmf`,
  :meth:`~SimulatorBackend.pmf_from_state` and the execution engine all
  finish through it, a single circuit being a batch of one.

The :class:`~repro.engine.ExecutionEngine` is the only code that
samples and charges a circuit; ``exact_pmf`` and ``pmf_from_state``
are uncharged references.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..circuits import Circuit
from ..sim import PMF, Counts, probabilities
from ..sim.plan import CircuitPlan, compile_plan
from .device import DeviceModel, ideal_device

__all__ = ["SimulatorBackend"]

#: The plan source a simulation hook compiles circuits through: the
#: engine's plan-cache lookup, or :func:`~repro.sim.plan.compile_plan`.
PlanFor = Callable[[Circuit], CircuitPlan]


def _run_plans(
    circuits: Sequence[Circuit], plan_for: PlanFor
) -> list[np.ndarray]:
    """Statevectors of bound circuits, one plan batch per structure.

    Circuits sharing a structure advance through one broadcast
    ``run_batch``; a structure met once runs alone.  Either way each
    state is bit-identical to ``run_statevector`` on its circuit.
    """
    states: list[np.ndarray] = [np.empty(0)] * len(circuits)
    groups: dict[str, tuple[CircuitPlan, list[int]]] = {}
    for i, circuit in enumerate(circuits):
        plan = plan_for(circuit)
        groups.setdefault(plan.structure_key, (plan, []))[1].append(i)
    for plan, indices in groups.values():
        if len(indices) == 1:
            (i,) = indices
            states[i] = plan.run(plan.slot_values(circuits[i]))
            continue
        batch = plan.run_batch(
            [plan.slot_values(circuits[i]) for i in indices]
        )
        for i, row in zip(indices, batch):
            states[i] = row.copy()
    return states


class SimulatorBackend:
    """Executes circuits against a :class:`~repro.noise.device.DeviceModel`.

    Parameters
    ----------
    device:
        Noise source; ``None`` means a perfectly ideal device.
    seed:
        Seed for the sampling RNG (shot noise).  Experiments that average
        over trials construct one backend per trial seed.

    The device is the only noise input: an experiment that isolates
    measurement error from gate error gives the other source zero
    rates (an ``ideal_device`` readout model, or
    ``DepolarizingGateNoise(0.0, 0.0)``).

    Subclassing (the :mod:`repro.backends` registry)
    ------------------------------------------------
    Alternative execution backends subclass this class and override the
    narrow hooks below — :meth:`circuit_probabilities_batch` and
    :meth:`prepare_states` (how bound circuits become ideal
    probabilities or statevectors, a function of their gates alone),
    :meth:`noise_gate_load` (the gate counts the global depolarizing
    mix charges), :meth:`sample` (how a PMF becomes counts) and
    :meth:`close` (releasing processes or connections) — so the
    noise finisher, the cost ledger, and the engine contract stay
    shared.  ``backend_kind`` is the registry name; the engine mixes it
    into its cache keys.  A subclass with extra PMF-shaping state
    beyond the device must expose it via a
    ``pmf_fingerprint_extra() -> str`` method (see
    :func:`repro.engine.device_fingerprint`) so memoized PMFs are never
    shared across configurations (it keys the finisher's stages too); an
    override of :meth:`exact_pmfs_from_probs_batch` forwards
    ``noise_key``, or drops it and keeps nothing.
    """

    #: Registry kind name (see :mod:`repro.backends`); subclasses
    #: override.  Part of the engine's cache key, so two backend kinds
    #: over one device never share memoized PMFs.
    backend_kind = "dense"

    def __init__(
        self,
        device: DeviceModel | None = None,
        seed: int | None = None,
    ):
        self.device = device if device is not None else ideal_device()
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.circuits_run = 0
        self.shots_run = 0
        # (noise key, {shape: stage}) of the last keyed finisher call.
        self._stages: tuple[str | None, dict] = (None, {})

    # ------------------------------------------------------------ accounting

    def charge(self, shots: int) -> None:
        """Record one executed circuit of ``shots`` shots on the ledger.

        Public so :class:`~repro.engine.ExecutionEngine` can charge per
        submitted spec even when deduplication simulated a circuit once.
        """
        self.circuits_run += 1
        self.shots_run += shots
        # Drifting devices measure logical time in charged circuits;
        # the engine charges in submission order after a whole batch's
        # PMFs are computed, so one batch sees one noise state.
        advance = getattr(self.device, "advance_clock", None)
        if advance is not None:
            advance(1)

    # -------------------------------------------------------------- sampling

    def sample(
        self, pmf: PMF, shots: int, rng: np.random.Generator
    ) -> Counts:
        """Turn one executed circuit's exact PMF into counts.

        The default draws ``shots`` multinomial samples from ``rng``
        (shot noise); analytic backends override this to return
        expected counts instead.  The engine's sampling phase calls
        this once per job, in submission order.
        """
        return Counts.from_pmf_samples(pmf, shots, rng)

    # ------------------------------------------------------ simulation hooks

    def circuit_probabilities_batch(
        self, circuits: Sequence[Circuit], plan_for: PlanFor
    ) -> list[np.ndarray]:
        """Ideal (pre-noise) outcome probabilities of bound circuits.

        One row per circuit, in order, over all ``2**n`` outcomes: a
        function of each circuit's gates alone, never of its measured
        qubits (the engine evaluates one circuit per *body* and lets
        every spec sharing it read out its own qubits).  The dense
        default runs each structure's circuits as one compiled-plan
        batch, with ``plan_for(circuit)`` supplying the plan — the
        engine passes its plan-cache lookup, one-off callers
        :func:`~repro.sim.plan.compile_plan`.  Overriding backends may
        ignore ``plan_for``.
        """
        return [probabilities(state) for state in _run_plans(
            circuits, plan_for
        )]

    def prepare_states(
        self, circuits: Sequence[Circuit], plan_for: PlanFor
    ) -> list[np.ndarray]:
        """Statevectors of bound circuits, measurement ignored.

        Not charged to the circuit counter: preparation alone is not an
        execution; the charge happens when a measurement run is
        requested.  ``plan_for`` as in
        :meth:`circuit_probabilities_batch`.
        """
        return _run_plans(circuits, plan_for)

    def noise_gate_load(self, circuit: Circuit) -> tuple[int, int]:
        """The (one-qubit, two-qubit) gate counts charged to gate noise.

        The noise finisher mixes in global depolarizing noise weighted
        by these counts, taken from the *original* circuit (a fused
        plan never changes the noise).  A backend whose
        :meth:`circuit_probabilities_batch` already applies gate noise
        returns ``(0, 0)`` so it is never applied twice.
        """
        g2 = circuit.num_two_qubit_gates
        return circuit.num_gates - g2, g2

    # ---------------------------------------------------- exact distributions

    def exact_pmf(self, circuit: Circuit, map_to_best: bool = False) -> PMF:
        """The exact (noisy) outcome distribution over measured qubits.

        Ideal probabilities from :meth:`circuit_probabilities_batch`,
        finished by :meth:`exact_pmfs_from_probs_batch` with
        :meth:`noise_gate_load` — both as a batch of one.
        """
        if not circuit.measured_qubits:
            raise ValueError("circuit measures no qubits")
        (probs,) = self.circuit_probabilities_batch([circuit], compile_plan)
        (pmf,) = self.exact_pmfs_from_probs_batch([(
            probs,
            circuit.n_qubits,
            tuple(sorted(circuit.measured_qubits)),
            map_to_best,
            self.noise_gate_load(circuit),
        )])
        return pmf

    def pmf_from_state(
        self,
        state: np.ndarray,
        suffix: CircuitPlan | None,
        measured_qubits,
        map_to_best: bool = False,
        gate_load: tuple[int, int] = (0, 0),
    ) -> PMF:
        """Exact noisy PMF of a prepared state + basis suffix (uncharged).

        ``suffix`` is a parameter-free compiled plan, as a
        :class:`~repro.engine.MeasurementSpec` carries it:
        :meth:`state_rows` with one readout, finished as a batch of one.
        """
        rows = self.state_rows(
            state, suffix, [(measured_qubits, map_to_best, gate_load)]
        )
        return self.exact_pmfs_from_probs_batch(rows)[0]

    def state_rows(
        self,
        state: np.ndarray,
        suffix: CircuitPlan | None,
        readouts,
    ) -> list[tuple]:
        """The finisher rows of one prepared state + basis suffix.

        Evolves ``state`` once through ``suffix``, a parameter-free
        compiled plan (when there is one); each ``(measured_qubits,
        map_to_best, gate_load)`` readout then gets its own row, with
        the suffix's gates added to ``gate_load`` (the state
        preparation's (one-qubit, two-qubit) gate count) so the
        depolarizing weight reflects the *full* circuit.  The engine
        batches the rows of every (state, suffix) body.
        """
        s1 = s2 = 0
        if suffix is not None:
            state = suffix.run((), initial_state=state)
            s1, s2 = suffix.gate_load
        probs = probabilities(state)
        n = int(np.log2(state.shape[0]))
        return [
            (
                probs,
                n,
                tuple(sorted(int(q) for q in measured)),
                map_to_best,
                (gate_load[0] + s1, gate_load[1] + s2),
            )
            for measured, map_to_best, gate_load in readouts
        ]

    def exact_pmfs_from_probs_batch(self, rows, noise_key=None) -> list[PMF]:
        """The noise finisher: exact noisy PMFs of ideal probability rows.

        ``rows`` is a list of ``(probs, n_qubits, measured, map_to_best,
        gate_load)`` tuples with ``measured`` a sorted tuple; the result
        is one PMF per row, in order.  Each row is normalized, mixed
        toward uniform with its gate load's depolarizing weight,
        marginalized onto ``measured`` and pushed through the readout
        channel (with crosstalk and the ``map_to_best`` line mapping),
        renormalized after every step.  Rows sharing ``(n_qubits,
        measured, map_to_best)`` advance through each step as single
        whole-group NumPy calls whose per-row bits do not depend on the
        rest of the batch (elementwise ops broadcast per row; axis
        reductions keep one pairwise order; each readout step is the
        GEMM ``np.tensordot`` issued, on the same operand, with the
        one-measured-qubit case looped because a batched GEMV would
        round differently), driven by that shape's :meth:`_stage`.
        The stages of the last ``noise_key`` given are reused until
        another key comes; the engine passes its
        :func:`~repro.engine.device_fingerprint`, so whatever moves its
        PMF cache key moves this one.  A call without a key keeps none.
        ``tests/noise/scalar_reference.py`` freezes the one-row
        pipeline this must equal bit for bit.
        """
        key, stages = self._stages  # one read: a concurrent swap is unseen
        if noise_key is None or noise_key != key:
            stages = {}
            if noise_key is not None:
                self._stages = (noise_key, stages)
        gn = self.device.gate_noise
        survival = [
            1.0 - min(1.0, e * gn.scale) for e in (gn.error_1q, gn.error_2q)
        ]
        out: list[PMF | None] = [None] * len(rows)
        groups: dict[tuple, list[int]] = {}
        for i, (_, n, measured, map_to_best, _) in enumerate(rows):
            groups.setdefault((n, measured, map_to_best), []).append(i)
        for shape, indices in groups.items():
            stage = stages.get(shape)
            if stage is None:
                stage = stages[shape] = self._stage(stages, *shape)
            pmfs = self._finish_group(
                [rows[i] for i in indices], stage, survival
            )
            for i, pmf in zip(indices, pmfs):
                out[i] = pmf
        return out  # type: ignore[return-value]

    def _stage(self, stages: dict, n: int, measured, map_to_best) -> tuple:
        """What finishing one shape needs apart from its rows.

        Its width's uniform PMF (kept in ``stages`` under ``n``), the
        axes the marginal sums away and each measured qubit's confusion
        matrix with the transpose that turns the last readout product
        into the operand ``np.tensordot`` would hand ``np.dot`` (the
        same data, shape and strides, so the same GEMM).
        """
        if not measured:
            raise ValueError("no measured qubits")
        uniform = stages.get(n)
        if uniform is None:
            uniform = stages[n] = PMF.uniform(n).probs
        drop = tuple(ax + 1 for ax in range(n) if ax not in measured)
        m = len(measured)
        mapping = self.physical_mapping(list(measured), map_to_best)
        readout = self.device.readout
        matrices = [
            readout.effective_error(mapping[q], m).confusion_matrix()
            for q in measured
        ]
        # Axis 0 holds the rows.  Step a contracts the operand that
        # tensordot builds, axes (qubit a, rows, qubits 1..a-1, a+1..m),
        # and its product keeps that order: the next perm starts there.
        perms = [
            (a, *range(1, a), 0, *range(a + 1, m + 1))
            for a in range(1, m + 1)
        ]
        return n, measured, uniform, drop, matrices, perms

    def _finish_group(self, rows: list, stage: tuple, survival) -> list[PMF]:
        """One same-shape group of :meth:`exact_pmfs_from_probs_batch`."""
        n, measured, uniform, drop, matrices, perms = stage
        batch = len(rows)
        probs = np.stack([np.asarray(row[0], dtype=float) for row in rows])
        if probs.min() < -1e-12:
            raise ValueError("probabilities must be nonnegative")
        probs = np.clip(probs, 0.0, None)
        totals = probs.sum(axis=1)
        if totals.min() <= 0:
            raise ValueError("probabilities sum to zero")
        probs = probs / totals[:, None]
        s1, s2 = survival
        lams = np.array([1.0 - s1**g1 * s2**g2 for *_, (g1, g2) in rows])
        if np.any(lams > 0):
            mixed = (1.0 - lams)[:, None] * probs + lams[:, None] * (
                uniform[None, :]
            )
            mixed = mixed / mixed.sum(axis=1)[:, None]
            # Rows with zero depolarizing weight skip the mix (and its
            # renormalization) entirely, as a lone row would.
            probs = np.where((lams > 0)[:, None], mixed, probs)
        if drop:
            probs = probs.reshape((batch,) + (2,) * n).sum(axis=drop)
        m = len(measured)
        probs = probs.reshape(batch, 2**m)
        probs = probs / probs.sum(axis=1)[:, None]
        if m == 1:
            (matrix,) = matrices
            probs = np.stack([
                np.dot(matrix, row.reshape(2, 1)).reshape(2) for row in probs
            ])
        else:
            tensor = probs.reshape((batch,) + (2,) * m)
            step = (2, batch) + (2,) * (m - 1)
            for matrix, perm in zip(matrices, perms):
                tensor = np.dot(
                    matrix, tensor.transpose(perm).reshape(2, -1)
                ).reshape(step)
            probs = tensor.transpose(*range(1, m + 1), 0).reshape(
                batch, 2**m
            )
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum(axis=1)[:, None]
        return [PMF._trusted(probs[i], measured) for i in range(batch)]

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

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the worker processes or connections the backend holds.

        A no-op here; backends that start workers override it.  Whoever
        builds a backend closes it (:meth:`repro.api.Session.close`
        closes the backends it built), and the ledger stays readable
        afterwards.
        """

    def __repr__(self) -> str:
        return (
            f"<SimulatorBackend device={self.device.name!r} "
            f"circuits_run={self.circuits_run}>"
        )
