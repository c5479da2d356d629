"""Routing tests: SWAP insertion and exact unitary equivalence."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.layout import CouplingMap, Layout, RoutedCircuit, route_circuit
from repro.sim.statevector import run_statevector


def decompose_swaps(circuit: Circuit) -> Circuit:
    """Replace every SWAP with its 3-CX expansion (native-gate costing)."""
    out = Circuit(circuit.n_qubits, name=circuit.name)
    for inst in circuit.instructions:
        if inst.name == "swap":
            a, b = inst.qubits
            out.cx(a, b)
            out.cx(b, a)
            out.cx(a, b)
        else:
            out.append(inst.name, inst.qubits, inst.param)
    out.measure(sorted(circuit.measured_qubits))
    return out


def logical_state_from_routed(
    routed: RoutedCircuit, n_logical: int
) -> np.ndarray:
    """Project the routed physical state back to logical qubit order.

    Physical qubits not holding a logical qubit must be |0>; the logical
    amplitude of basis state ``b`` is the physical amplitude of the
    basis state with ``b[l]`` at ``final_layout.physical(l)``.
    """
    state = run_statevector(routed.circuit)
    n_phys = routed.circuit.n_qubits
    out = np.zeros(2**n_logical, dtype=complex)
    for logical_index in range(2**n_logical):
        bits = format(logical_index, f"0{n_logical}b")
        phys_bits = ["0"] * n_phys
        for l in range(n_logical):
            phys_bits[routed.final_layout.physical(l)] = bits[l]
        out[logical_index] = state[int("".join(phys_bits), 2)]
    return out


def random_circuit(rng, n_qubits, n_gates=15):
    qc = Circuit(n_qubits)
    for _ in range(n_gates):
        if n_qubits >= 2 and rng.random() < 0.45:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            if rng.random() < 0.5:
                qc.cx(int(a), int(b))
            else:
                qc.cz(int(a), int(b))
        else:
            q = int(rng.integers(n_qubits))
            qc.ry(float(rng.normal()), q)
            qc.rz(float(rng.normal()), q)
    return qc


class TestBasicRouting:
    def test_adjacent_gates_untouched(self):
        qc = Circuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.cx(1, 2)
        routed = route_circuit(qc, CouplingMap.line(3))
        assert routed.swaps_inserted == 0
        assert routed.final_layout == routed.initial_layout
        assert routed.circuit.num_gates == 3

    def test_distant_gate_needs_swaps(self):
        qc = Circuit(3)
        qc.cx(0, 2)
        routed = route_circuit(qc, CouplingMap.line(3))
        assert routed.swaps_inserted == 1
        assert routed.overhead == 3

    def test_full_connectivity_never_swaps(self):
        rng = np.random.default_rng(3)
        qc = random_circuit(rng, 4)
        routed = route_circuit(qc, CouplingMap.full(4))
        assert routed.swaps_inserted == 0

    def test_wider_device_than_circuit(self):
        qc = Circuit(2)
        qc.cx(0, 1)
        layout = Layout.from_physical_list([0, 4])
        routed = route_circuit(qc, CouplingMap.line(5), layout)
        assert routed.circuit.n_qubits == 5
        assert routed.swaps_inserted == 3

    def test_layout_width_mismatch_rejected(self):
        qc = Circuit(3)
        with pytest.raises(ValueError, match="width"):
            route_circuit(qc, CouplingMap.line(3), Layout.trivial(2))

    def test_layout_outside_device_rejected(self):
        qc = Circuit(2)
        layout = Layout.from_physical_list([0, 7])
        with pytest.raises(ValueError, match="outside"):
            route_circuit(qc, CouplingMap.line(3), layout)

    def test_measured_qubits_follow_layout(self):
        qc = Circuit(2)
        qc.cx(0, 1)
        qc.measure_all()
        layout = Layout.from_physical_list([2, 0])
        routed = route_circuit(qc, CouplingMap.line(3), layout)
        expected = {
            routed.final_layout.physical(0),
            routed.final_layout.physical(1),
        }
        assert routed.circuit.measured_qubits == expected


class TestUnitaryEquivalence:
    @pytest.mark.parametrize(
        "coupling_factory",
        [
            lambda: CouplingMap.line(4),
            lambda: CouplingMap.ring(4),
            lambda: CouplingMap.grid(2, 2),
        ],
    )
    def test_random_circuits_equivalent(self, coupling_factory):
        rng = np.random.default_rng(17)
        coupling = coupling_factory()
        for _ in range(6):
            qc = random_circuit(rng, 4)
            routed = route_circuit(qc, coupling)
            expected = run_statevector(qc)
            actual = logical_state_from_routed(routed, 4)
            assert np.allclose(actual, expected, atol=1e-9)

    def test_nontrivial_initial_layout_equivalent(self):
        rng = np.random.default_rng(23)
        qc = random_circuit(rng, 3)
        layout = Layout.from_physical_list([3, 0, 2])
        routed = route_circuit(qc, CouplingMap.line(5), layout)
        expected = run_statevector(qc)
        actual = logical_state_from_routed(routed, 3)
        assert np.allclose(actual, expected, atol=1e-9)

    def test_h_shape_device_equivalent(self):
        rng = np.random.default_rng(29)
        qc = random_circuit(rng, 5)
        routed = route_circuit(qc, CouplingMap.h_shape_7())
        expected = run_statevector(qc)
        actual = logical_state_from_routed(routed, 5)
        assert np.allclose(actual, expected, atol=1e-9)


class TestSwapDecomposition:
    def test_decomposed_swaps_equivalent(self):
        rng = np.random.default_rng(31)
        qc = random_circuit(rng, 3)
        routed = route_circuit(qc, CouplingMap.line(3))
        native = decompose_swaps(routed.circuit)
        assert all(
            inst.name != "swap" for inst in native.instructions
        )
        assert np.allclose(
            run_statevector(native),
            run_statevector(routed.circuit),
            atol=1e-9,
        )

    def test_cx_count_accounting(self):
        qc = Circuit(3)
        qc.cx(0, 2)
        routed = route_circuit(qc, CouplingMap.line(3))
        native = decompose_swaps(routed.circuit)
        assert native.num_two_qubit_gates == 1 + routed.overhead
