"""Unit tests for the self-inverse cancellation pass."""

import numpy as np

from repro.circuits import Circuit, cancel_adjacent
from repro.sim import probabilities, run_statevector


def same_distribution(a: Circuit, b: Circuit) -> bool:
    return np.allclose(
        probabilities(run_statevector(a)), probabilities(run_statevector(b))
    )


class TestCancelAdjacent:
    def test_hh_cancels(self):
        qc = Circuit(1)
        qc.h(0)
        qc.h(0)
        assert len(cancel_adjacent(qc)) == 0

    def test_cxcx_cancels(self):
        qc = Circuit(2)
        qc.cx(0, 1)
        qc.cx(0, 1)
        assert len(cancel_adjacent(qc)) == 0

    def test_reversed_cx_does_not_cancel(self):
        qc = Circuit(2)
        qc.cx(0, 1)
        qc.cx(1, 0)
        assert len(cancel_adjacent(qc)) == 2

    def test_intervening_gate_blocks_cancellation(self):
        qc = Circuit(1)
        qc.h(0)
        qc.x(0)
        qc.h(0)
        assert len(cancel_adjacent(qc)) == 3

    def test_disjoint_qubit_gate_does_not_block(self):
        # Regression: the pass used to inspect only the stack top, so a
        # commuting gate on another qubit hid this cancelable pair.
        qc = Circuit(2)
        qc.h(0)
        qc.x(1)
        qc.h(0)
        reduced = cancel_adjacent(qc)
        assert len(reduced) == 1
        assert reduced.instructions[0].name == "x"
        assert same_distribution(qc, reduced)

    def test_scan_stops_at_first_shared_qubit(self):
        # The intervening CX touches qubit 1, so the outer CX pair must
        # survive (they do not commute past it).
        qc = Circuit(3)
        qc.cx(0, 1)
        qc.cx(1, 2)
        qc.cx(0, 1)
        assert len(cancel_adjacent(qc)) == 3

    def test_many_disjoint_gates_are_scanned_past(self):
        qc = Circuit(4)
        qc.cx(0, 1)
        qc.h(2)
        qc.rz(0.3, 3)
        qc.x(2)
        qc.cx(0, 1)
        reduced = cancel_adjacent(qc)
        assert [ins.name for ins in reduced.instructions] == [
            "h", "rz", "x",
        ]

    def test_gate_restriction_limits_cancellation(self):
        from repro.circuits.transpile import BITEXACT_SELF_INVERSE

        qc = Circuit(1)
        qc.h(0)
        qc.h(0)
        qc.x(0)
        qc.x(0)
        reduced = cancel_adjacent(qc, gates=BITEXACT_SELF_INVERSE)
        # H is not bit-exact (1/sqrt2 rounds), so only the X pair goes.
        assert [ins.name for ins in reduced.instructions] == ["h", "h"]

    def test_cascading_cancellation(self):
        # X H H X -> X X -> nothing.
        qc = Circuit(1)
        qc.x(0)
        qc.h(0)
        qc.h(0)
        qc.x(0)
        assert len(cancel_adjacent(qc)) == 0

    def test_t_is_not_self_inverse(self):
        qc = Circuit(1)
        qc.t(0)
        qc.t(0)
        assert len(cancel_adjacent(qc)) == 2

    def test_preserves_measurement(self):
        qc = Circuit(2)
        qc.h(0)
        qc.h(0)
        qc.measure(1)
        assert cancel_adjacent(qc).measured_qubits == {1}
