"""A test-local ansatz whose every binding is one hand-built circuit.

The engine prepares states from an ansatz and a parameter vector; tests
that prepare a hand-built circuit wrap it in :class:`FixedCircuitAnsatz`
and prepare it at the empty parameter vector.
"""

from repro.circuits import Circuit
from repro.engine import body_fingerprint


class FixedCircuitAnsatz:
    """Duck-types the ansatz protocol for one bound circuit.

    ``bind`` returns the circuit whatever it is given; ``content_key``
    is the circuit's body fingerprint, so two fixed ansatzes share
    prepared states exactly when their circuits have the same gates.
    """

    num_parameters = 0

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.n_qubits = circuit.n_qubits
        self.content_key = body_fingerprint(circuit)

    def bind(self, values) -> Circuit:
        return self.circuit


def prepare(engine, circuit: Circuit):
    """``engine.prepare_state`` of one hand-built circuit."""
    return engine.prepare_state(FixedCircuitAnsatz(circuit), ())
