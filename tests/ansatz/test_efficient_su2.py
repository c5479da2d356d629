"""Unit tests for the hardware-efficient SU2 ansatz."""

import numpy as np
import pytest

from repro.ansatz import ENTANGLEMENT_TYPES, EfficientSU2
from repro.sim import probabilities, run_statevector


class TestStructure:
    def test_parameter_count(self):
        # 2 * n * (reps + 1) parameters, Qiskit-compatible.
        assert EfficientSU2(4, reps=2).num_parameters == 24
        assert EfficientSU2(6, reps=1).num_parameters == 24
        assert EfficientSU2(3, reps=4).num_parameters == 30

    def test_entanglement_gate_counts(self):
        n = 5
        full = EfficientSU2(n, reps=1, entanglement="full")
        linear = EfficientSU2(n, reps=1, entanglement="linear")
        circular = EfficientSU2(n, reps=1, entanglement="circular")
        assert full.circuit.num_two_qubit_gates == n * (n - 1) // 2
        assert linear.circuit.num_two_qubit_gates == n - 1
        assert circular.circuit.num_two_qubit_gates == n

    def test_asymmetric_rotates_pattern_between_blocks(self):
        ansatz = EfficientSU2(4, reps=2, entanglement="asymmetric")
        cx = [
            ins.qubits
            for ins in ansatz.circuit.instructions
            if ins.name == "cx"
        ]
        first_block, second_block = cx[:4], cx[4:]
        assert first_block != second_block

    def test_reps_scale_depth(self):
        def depth(circuit):
            """Longest chain of gates over shared qubits."""
            level = [0] * circuit.n_qubits
            for ins in circuit.instructions:
                d = 1 + max(level[q] for q in ins.qubits)
                for q in ins.qubits:
                    level[q] = d
            return max(level)

        shallow = EfficientSU2(4, reps=1)
        deep = EfficientSU2(4, reps=8)
        assert depth(deep.circuit) > depth(shallow.circuit)

    def test_invalid_entanglement(self):
        with pytest.raises(ValueError):
            EfficientSU2(4, entanglement="star")

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            EfficientSU2(1)
        with pytest.raises(ValueError):
            EfficientSU2(4, reps=0)

    def test_gate_load_partition(self):
        ansatz = EfficientSU2(4, reps=2)
        g1, g2 = ansatz.gate_load
        assert g1 + g2 == ansatz.circuit.num_gates
        assert g2 == ansatz.circuit.num_two_qubit_gates

    @pytest.mark.parametrize("entanglement", ENTANGLEMENT_TYPES)
    def test_all_types_simulate(self, entanglement):
        ansatz = EfficientSU2(3, reps=2, entanglement=entanglement)
        bound = ansatz.bind(np.zeros(ansatz.num_parameters))
        state = run_statevector(bound)
        assert np.isclose(np.linalg.norm(state), 1.0)


class TestBinding:
    def test_bind_produces_bound_circuit(self):
        ansatz = EfficientSU2(3, reps=1)
        bound = ansatz.bind(np.linspace(0, 1, ansatz.num_parameters))
        assert bound.is_bound()

    def test_bind_wrong_length(self):
        ansatz = EfficientSU2(3, reps=1)
        with pytest.raises(ValueError):
            ansatz.bind([0.0])

    def test_zero_parameters_give_zero_state(self):
        """All-zero angles: RY(0)=RZ(0)=I, CX|00..>=|00..>."""
        ansatz = EfficientSU2(3, reps=2)
        state = run_statevector(ansatz.bind(np.zeros(ansatz.num_parameters)))
        assert np.isclose(probabilities(state)[0], 1.0)

    def test_parameters_change_state(self):
        ansatz = EfficientSU2(3, reps=1)
        a = run_statevector(ansatz.bind(np.zeros(ansatz.num_parameters)))
        values = np.full(ansatz.num_parameters, 0.4)
        b = run_statevector(ansatz.bind(values))
        assert not np.allclose(probabilities(a), probabilities(b))

    def test_two_qubit_asymmetric_special_case(self):
        ansatz = EfficientSU2(2, reps=2, entanglement="asymmetric")
        bound = ansatz.bind(np.zeros(ansatz.num_parameters))
        assert bound.is_bound()
