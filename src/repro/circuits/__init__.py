"""Quantum circuit intermediate representation.

Public surface:

* :class:`~repro.circuits.circuit.Circuit` — gate list + measured qubits.
* :class:`~repro.circuits.parameter.Parameter` /
  :class:`~repro.circuits.parameter.ParameterVector` — symbolic parameters.
* :func:`~repro.circuits.gates.gate_matrix` — unitary lookup used by the
  simulator.
"""

from .circuit import Circuit, Instruction
from .gates import FIXED_GATES, GATE_ARITY, ROTATION_GATES, gate_matrix, is_rotation, rotation_matrix
from .parameter import Parameter, ParameterVector
from .transpile import cancel_adjacent

__all__ = [
    "Circuit",
    "Instruction",
    "Parameter",
    "ParameterVector",
    "gate_matrix",
    "rotation_matrix",
    "is_rotation",
    "FIXED_GATES",
    "GATE_ARITY",
    "ROTATION_GATES",
    "cancel_adjacent",
]
