"""Unit tests for compiled circuit plans."""

import numpy as np
import pytest

from repro.circuits import Circuit, Parameter, gate_matrix, rotation_matrix
from repro.sim import probabilities, run_statevector
from repro.sim.plan import compile_plan, structure_fingerprint
from repro.sim.statevector import apply_gate, zero_state


def interpret(circuit, initial_state=None):
    """The historical gate-by-gate tensordot interpreter (reference)."""
    state = (
        zero_state(circuit.n_qubits)
        if initial_state is None
        else initial_state.astype(complex, copy=True)
    )
    for ins in circuit.instructions:
        if ins.name == "i":
            continue
        state = apply_gate(
            state,
            gate_matrix(ins.name, ins.param),
            ins.qubits,
            circuit.n_qubits,
        )
    return state


def ansatz(theta=0.3, phi=-1.1):
    qc = Circuit(3)
    qc.h(0)
    qc.cx(0, 1)
    qc.ry(theta, 2)
    qc.cx(1, 2)
    qc.rz(phi, 0)
    qc.measure((0, 1, 2))
    return qc


class TestStructureFingerprint:
    def test_parameters_do_not_change_the_key(self):
        assert structure_fingerprint(ansatz(0.1, 0.2)) == (
            structure_fingerprint(ansatz(2.5, -0.9))
        )

    def test_structure_changes_the_key(self):
        other = ansatz()
        other.x(1)
        assert structure_fingerprint(ansatz()) != (
            structure_fingerprint(other)
        )

    def test_measurement_set_is_excluded(self):
        partial = ansatz()
        full = ansatz()
        full.measure((0, 1, 2))
        partial_only = Circuit(3)
        assert structure_fingerprint(partial) == structure_fingerprint(full)
        assert structure_fingerprint(partial) != (
            structure_fingerprint(partial_only)
        )

    def test_unbound_circuits_are_compilable_structures(self):
        qc = Circuit(1)
        qc.ry(Parameter("a"), 0)
        bound = Circuit(1)
        bound.ry(0.7, 0)
        assert structure_fingerprint(qc) == structure_fingerprint(bound)


class TestCompile:
    def test_gate_load_counts_the_original_instructions(self):
        # x(0) x(0) fuses away, but depolarizing noise must still be
        # charged for both gates: the plan records pre-fusion counts.
        qc = Circuit(2)
        qc.x(0)
        qc.x(0)
        qc.cx(0, 1)
        plan = compile_plan(qc)
        assert plan.gate_load == (2, 1)
        assert plan.fused_gates == 2
        assert len(plan._ops) == 1

    def test_identity_gates_are_dropped_like_the_interpreter(self):
        qc = Circuit(1)
        qc.i(0)
        qc.x(0)
        plan = compile_plan(qc)
        assert len(plan._ops) == 1
        assert plan.fused_gates == 1

    def test_h_pairs_are_not_fused(self):
        # H·H only rounds to identity; the bit-exact plan keeps both.
        qc = Circuit(1)
        qc.h(0)
        qc.h(0)
        assert len(compile_plan(qc)._ops) == 2

    def test_rotation_slots_in_instruction_order(self):
        plan = compile_plan(ansatz())
        assert plan.num_slots == 2
        assert plan.slot_values(ansatz(0.5, 1.5)) == [0.5, 1.5]


class TestBinding:
    def test_unbound_parameter_rejected_at_binding(self):
        qc = Circuit(1)
        qc.ry(Parameter("a"), 0)
        plan = compile_plan(qc)
        with pytest.raises(ValueError, match="unbound parameter"):
            plan.slot_values(qc)

    def test_slot_count_mismatch_rejected(self):
        plan = compile_plan(ansatz())
        extra = ansatz()
        extra.rx(0.1, 1)
        with pytest.raises(ValueError, match="rotation parameters"):
            plan.slot_values(extra)
        with pytest.raises(ValueError, match="slot values"):
            plan.run([0.1])

    def test_wrong_initial_state_shape_rejected(self):
        plan = compile_plan(ansatz())
        with pytest.raises(ValueError, match="wrong shape"):
            plan.run([0.1, 0.2], initial_state=np.ones(4, dtype=complex))


class TestExecution:
    def test_run_matches_interpreter_bitwise(self):
        qc = ansatz(0.7, -0.4)
        plan = compile_plan(qc)
        planned = probabilities(plan.run(plan.slot_values(qc)))
        direct = probabilities(interpret(qc))
        assert np.array_equal(planned, direct)

    def test_run_statevector_routes_through_a_plan(self):
        qc = ansatz(0.7, -0.4)
        assert np.array_equal(
            probabilities(run_statevector(qc)),
            probabilities(interpret(qc)),
        )

    def test_run_from_initial_state(self):
        qc = Circuit(2)
        qc.cx(0, 1)
        plan = compile_plan(qc)
        state = np.zeros(4, dtype=complex)
        state[0b10] = 1.0
        out = plan.run([], initial_state=state)
        assert np.array_equal(
            probabilities(out), probabilities(interpret(qc, state))
        )
        # The caller's array is copied, never evolved in place.
        assert state[0b10] == 1.0

    def test_empty_circuit_plan_is_the_identity(self):
        plan = compile_plan(Circuit(2))
        out = plan.run([])
        assert out[0] == 1.0 and np.count_nonzero(out) == 1

    def test_run_batch_rows_match_run(self):
        qc = ansatz()
        plan = compile_plan(qc)
        bindings = [[0.1, 0.2], [1.3, -0.7], [0.0, 3.1]]
        batch = plan.run_batch(bindings)
        assert batch.shape == (3, 8)
        for row, values in zip(batch, bindings):
            assert np.array_equal(row, plan.run(values))

    def test_run_batch_empty(self):
        plan = compile_plan(ansatz())
        assert compile_plan(ansatz()).run_batch([]).shape == (0, 8)
        assert plan.run_batch([]).dtype == complex

    def test_fused_plan_probabilities_still_match(self):
        # A bit-exact pair around a disjoint-qubit gate cancels in the
        # plan, yet every probability bit survives.
        qc = Circuit(2)
        qc.x(0)
        qc.ry(0.9, 1)
        qc.x(0)
        qc.cx(0, 1)
        plan = compile_plan(qc)
        assert plan.fused_gates == 2
        assert np.array_equal(
            probabilities(plan.run(plan.slot_values(qc))),
            probabilities(interpret(qc)),
        )


#: Angles where a rebuilt matrix could drift from the scalar one: signed
#: zeros, ±π, a vanishing angle and one far outside a period.
EDGE_ANGLES = [0.0, -0.0, np.pi, -np.pi, 1e-300, 3e10]


def every_rotation(angles):
    """One qubit through rx, ry, rz and p, one slot per gate."""
    qc = Circuit(1)
    for name, theta in zip(("rx", "ry", "rz", "p"), angles):
        qc.append(name, 0, theta)
    return qc


class TestOnePassRotations:
    """A plan builds every slot's matrix in one pass, byte for byte."""

    @staticmethod
    def angles():
        rng = np.random.default_rng(2024)
        randoms = rng.uniform(-4 * np.pi, 4 * np.pi, 40).tolist()
        return randoms + EDGE_ANGLES

    @pytest.mark.parametrize("name", ["rx", "ry", "rz", "p"])
    def test_each_gate_matches_rotation_matrix_bytes(self, name):
        qc = Circuit(1)
        qc.append(name, 0, 0.0)
        plan = compile_plan(qc)
        angles = self.angles()
        matrices = plan._slot_matrices([[theta] for theta in angles])
        assert matrices.shape == (1, len(angles), 2, 2)
        for theta, matrix in zip(angles, matrices[0]):
            # tobytes, not array_equal: signed zeros must match too.
            expected = rotation_matrix(name, theta)
            assert matrix.tobytes() == expected.tobytes(), theta

    def test_mixed_slots_and_bindings_match_rotation_matrix_bytes(self):
        angles = self.angles()
        rows = [angles[i:i + 4] for i in range(len(angles) - 3)]
        plan = compile_plan(every_rotation(rows[0]))
        matrices = plan._slot_matrices(rows)
        assert matrices.shape == (4, len(rows), 2, 2)
        for b, row in enumerate(rows):
            for k, name in enumerate(("rx", "ry", "rz", "p")):
                expected = rotation_matrix(name, row[k])
                assert matrices[k, b].tobytes() == expected.tobytes()

    def test_run_and_run_batch_match_the_interpreter_amplitudes(self):
        angles = self.angles()
        rows = [angles[i:i + 4] for i in range(0, len(angles) - 3, 4)]
        plan = compile_plan(every_rotation(rows[0]))
        batch = plan.run_batch(rows)
        for row, amplitudes in zip(rows, batch):
            expected = interpret(every_rotation(row))
            assert plan.run(row).tobytes() == expected.tobytes()
            assert amplitudes.tobytes() == expected.tobytes()
