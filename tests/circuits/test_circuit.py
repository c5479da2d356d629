"""Unit tests for the circuit IR."""

import pytest

from repro.circuits import Circuit, Parameter


class TestConstruction:
    def test_needs_positive_width(self):
        with pytest.raises(ValueError):
            Circuit(0)

    def test_append_unknown_gate(self):
        qc = Circuit(2)
        with pytest.raises(ValueError):
            qc.append("bogus", 0)

    def test_append_wrong_arity(self):
        qc = Circuit(2)
        with pytest.raises(ValueError):
            qc.append("cx", (0,))

    def test_append_duplicate_qubits(self):
        qc = Circuit(2)
        with pytest.raises(ValueError):
            qc.cx(1, 1)

    def test_append_out_of_range(self):
        qc = Circuit(2)
        with pytest.raises(ValueError):
            qc.h(2)

    def test_rotation_requires_param(self):
        qc = Circuit(1)
        with pytest.raises(ValueError):
            qc.append("rx", 0)

    def test_fixed_gate_rejects_param(self):
        qc = Circuit(1)
        with pytest.raises(ValueError):
            qc.append("h", 0, 0.5)

    def test_convenience_methods_record_instructions(self):
        qc = Circuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.rz(0.5, 2)
        assert [ins.name for ins in qc.instructions] == ["h", "cx", "rz"]
        assert qc.instructions[1].qubits == (0, 1)


class TestMeasurement:
    def test_measure_single(self):
        qc = Circuit(3)
        qc.measure(1)
        assert qc.measured_qubits == {1}

    def test_measure_iterable(self):
        qc = Circuit(3)
        qc.measure([0, 2])
        assert qc.measured_qubits == {0, 2}

    def test_measure_all(self):
        qc = Circuit(3)
        qc.measure_all()
        assert qc.measured_qubits == {0, 1, 2}

    def test_measure_out_of_range(self):
        qc = Circuit(2)
        with pytest.raises(ValueError):
            qc.measure(5)


class TestBinding:
    def test_parameters_property(self):
        qc = Circuit(2)
        qc.rx(Parameter("a"), 0)
        qc.ry(Parameter("b"), 1)
        qc.h(0)
        assert qc.parameters == {"a", "b"}

    def test_bind_resolves_all(self):
        qc = Circuit(1)
        qc.rx(Parameter("a"), 0)
        bound = qc.bind({"a": 0.7})
        assert bound.is_bound()
        assert bound.instructions[0].param == 0.7

    def test_bind_leaves_original_symbolic(self):
        qc = Circuit(1)
        qc.rx(Parameter("a"), 0)
        qc.bind({"a": 0.7})
        assert not qc.is_bound()

    def test_bind_preserves_measurement(self):
        qc = Circuit(2)
        qc.rx(Parameter("a"), 0)
        qc.measure(1)
        assert qc.bind({"a": 1.0}).measured_qubits == {1}

    def test_scaled_parameter_binding(self):
        qc = Circuit(1)
        qc.rz(Parameter("a") / 2, 0)
        assert qc.bind({"a": 3.0}).instructions[0].param == 1.5


class TestComposeAndCopy:
    def test_compose_appends_gates(self):
        a = Circuit(2)
        a.h(0)
        b = Circuit(2)
        b.cx(0, 1)
        c = a.compose(b)
        assert [ins.name for ins in c.instructions] == ["h", "cx"]

    def test_compose_merges_measurements(self):
        a = Circuit(2)
        a.measure(0)
        b = Circuit(2)
        b.measure(1)
        assert a.compose(b).measured_qubits == {0, 1}

    def test_compose_width_mismatch(self):
        with pytest.raises(ValueError):
            Circuit(2).compose(Circuit(3))

    def test_copy_is_independent(self):
        a = Circuit(2)
        a.h(0)
        b = a.copy()
        b.x(1)
        assert len(a) == 1
        assert len(b) == 2


class TestInspection:
    def test_two_qubit_gate_count(self):
        qc = Circuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.cz(1, 2)
        assert qc.num_two_qubit_gates == 2
        assert qc.num_gates == 3

    def test_repr_contains_counts(self):
        qc = Circuit(2, name="bell")
        qc.h(0)
        qc.cx(0, 1)
        qc.measure_all()
        text = repr(qc)
        assert "bell" in text and "2 gates" in text
