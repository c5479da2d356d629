"""Property-based tests for compiled plans and gate cancellation.

The correctness contract pinned here is the one
:mod:`repro.sim.plan` documents: for any bound circuit over the full
gate set, the compiled plan's outcome probabilities are **bit-identical**
to the historical gate-by-gate ``tensordot`` interpreter, and
:func:`repro.circuits.cancel_adjacent` preserves the circuit unitary —
in particular across the commuting-cancellation pattern its old
stack-top-only scan missed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    GATE_ARITY,
    ROTATION_GATES,
    Circuit,
    cancel_adjacent,
    gate_matrix,
)
from repro.sim import probabilities
from repro.sim.plan import compile_plan
from repro.sim.statevector import apply_gate, zero_state

_ANGLES = st.floats(-6.3, 6.3, allow_nan=False, allow_infinity=False)


def interpret(circuit, initial_state=None):
    """Reference gate-by-gate interpreter (pre-plan semantics)."""
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


@st.composite
def full_gateset_circuits(draw, max_qubits=8, max_gates=24):
    """A random circuit over *every* gate in :data:`GATE_ARITY`."""
    n_qubits = draw(st.integers(1, max_qubits))
    names = sorted(
        name
        for name, arity in GATE_ARITY.items()
        if arity <= n_qubits
    )
    qc = Circuit(n_qubits)
    for _ in range(draw(st.integers(0, max_gates))):
        name = draw(st.sampled_from(names))
        qubits = draw(
            st.permutations(range(n_qubits)).map(
                lambda p, k=GATE_ARITY[name]: tuple(p[:k])
            )
        )
        param = draw(_ANGLES) if name in ROTATION_GATES else None
        qc.append(name, qubits, param)
    return qc


class TestPlanBitIdentity:
    @given(full_gateset_circuits())
    @settings(max_examples=120, deadline=None)
    def test_plan_probabilities_match_interpreter_bitwise(self, qc):
        plan = compile_plan(qc)
        planned = probabilities(plan.run(plan.slot_values(qc)))
        direct = probabilities(interpret(qc))
        assert np.array_equal(planned, direct)

    @given(full_gateset_circuits(max_qubits=4), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_run_batch_rows_match_scalar_runs_bitwise(self, qc, copies):
        plan = compile_plan(qc)
        values = plan.slot_values(qc)
        bindings = [
            [v + 0.01 * i for v in values] for i in range(copies)
        ]
        batch = plan.run_batch(bindings)
        for row, binding in zip(batch, bindings):
            assert np.array_equal(row, plan.run(binding))

    @given(full_gateset_circuits(max_qubits=3))
    @settings(max_examples=60, deadline=None)
    def test_gate_load_counts_the_original_circuit(self, qc):
        plan = compile_plan(qc)
        g2 = qc.num_two_qubit_gates
        assert plan.gate_load == (qc.num_gates - g2, g2)


class TestTranspileUnitaryEquivalence:
    @given(full_gateset_circuits(max_qubits=4, max_gates=20))
    @settings(max_examples=80, deadline=None)
    def test_transpiled_circuit_has_the_same_unitary(self, qc):
        # Every self-inverse gate may cancel here, H included, which
        # the plan compiler's bit-exact subset leaves alone; H·H only
        # rounds to the identity, hence the tolerance.
        optimized = cancel_adjacent(qc)
        assert len(optimized) <= len(qc)
        dim = 2**qc.n_qubits
        for column in range(dim):
            basis = np.zeros(dim, dtype=complex)
            basis[column] = 1.0
            got = interpret(optimized, basis)
            assert np.allclose(got, interpret(qc, basis), atol=1e-9)

    @given(
        st.sampled_from(sorted({"h", "x", "y", "z"})),
        st.integers(0, 2),
        st.integers(0, 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_pairs_cancel_across_commuting_gates(self, name, q, other):
        # The regression shape: a self-inverse pair separated by gates
        # on disjoint qubits must cancel (the old pass only looked at
        # the stack top).
        qc = Circuit(3)
        qc.append(name, (q,))
        qc.x((q + 1 + other) % 3)
        qc.append(name, (q,))
        optimized = cancel_adjacent(qc)
        assert len(optimized) == 1
        assert optimized.instructions[0].name == "x"
