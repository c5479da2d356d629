"""Device layout and routing substrate.

JigSaw's subset circuits win partly because "the target logical qubits
to be measured [map] onto the physical qubits with highest measurement
fidelity" (paper Section 1).  On real hardware that mapping is
constrained by the device's coupling graph and costs SWAPs when the
circuit needs non-adjacent interactions.  This subpackage supplies the
machinery the paper's compiler stack (Qiskit) provided implicitly:

* :class:`CouplingMap` — device topologies, including the Falcon-style
  heavy-hex 27-qubit graph (IBMQ Mumbai) and the 7-qubit H shape
  (Lagos / Jakarta).
* :class:`Layout` + :func:`noise_aware_layout` — readout-fidelity-aware
  placement of logical qubits onto connected physical regions.
* :func:`route_circuit` — greedy SWAP insertion that makes any circuit
  executable on a coupling map, with exact unitary-equivalence tests.
"""

from .coupling import CouplingMap
from .placement import (
    Layout,
    best_measurement_placement,
    noise_aware_layout,
    noise_aware_path_layout,
)
from .routing import RoutedCircuit, route_circuit

__all__ = [
    "CouplingMap",
    "Layout",
    "noise_aware_layout",
    "noise_aware_path_layout",
    "best_measurement_placement",
    "route_circuit",
    "RoutedCircuit",
]
