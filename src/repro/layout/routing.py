"""Greedy SWAP routing onto a coupling map.

Takes a logical circuit plus an initial :class:`Layout` and produces a
physical-space circuit in which every two-qubit gate acts on coupled
qubits, inserting SWAP chains along shortest paths when needed.  The
final layout is returned so measurement outcomes can be read back in
logical order — and so tests can assert exact statevector equivalence
up to that permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits import Circuit
from .coupling import CouplingMap
from .placement import Layout

__all__ = ["RoutedCircuit", "route_circuit"]


@dataclass(frozen=True)
class RoutedCircuit:
    """A routed physical circuit plus its layout bookkeeping.

    ``circuit`` acts on physical qubits (width = device size).  The
    logical qubit ``l`` starts at ``initial_layout.physical(l)`` and ends
    at ``final_layout.physical(l)``; measured physical qubits are the
    images of the logical measured set under the final layout.
    """

    circuit: Circuit
    initial_layout: Layout
    final_layout: Layout
    swaps_inserted: int

    @property
    def overhead(self) -> int:
        """Extra two-qubit gates paid for connectivity (3 CX per SWAP)."""
        return 3 * self.swaps_inserted


def route_circuit(
    circuit: Circuit,
    coupling: CouplingMap,
    initial_layout: Layout | None = None,
) -> RoutedCircuit:
    """Make ``circuit`` executable on ``coupling`` by inserting SWAPs.

    Strategy: walk the instruction list; for each two-qubit gate whose
    operands are not adjacent, swap one operand along the shortest path
    until they meet.  Simple, deterministic, and within small factors of
    heuristic routers on the shallow circuits this library simulates.
    """
    if initial_layout is None:
        initial_layout = Layout.trivial(circuit.n_qubits)
    if initial_layout.n_logical != circuit.n_qubits:
        raise ValueError("layout width != circuit width")
    physicals = initial_layout.physical_qubits()
    if any(p >= coupling.n_qubits for p in physicals):
        raise ValueError("layout targets qubits outside the device")

    routed = Circuit(coupling.n_qubits, name=f"{circuit.name}_routed")
    layout = initial_layout
    swaps = 0
    for inst in circuit.instructions:
        if len(inst.qubits) == 1:
            routed.append(
                inst.name, (layout.physical(inst.qubits[0]),), inst.param
            )
            continue
        if len(inst.qubits) != 2:
            raise ValueError(
                f"cannot route {len(inst.qubits)}-qubit gate {inst.name}"
            )
        a, b = inst.qubits
        pa, pb = layout.physical(a), layout.physical(b)
        if not coupling.are_adjacent(pa, pb):
            path = coupling.shortest_path(pa, pb)
            # Walk qubit a down the path until adjacent to b.
            for step in range(len(path) - 2):
                routed.swap(path[step], path[step + 1])
                layout = layout.swap_physicals(path[step], path[step + 1])
                swaps += 1
            pa = path[-2]
        routed.append(inst.name, (pa, pb), inst.param)
    if circuit.measured_qubits:
        routed.measure(
            sorted(layout.physical(q) for q in circuit.measured_qubits)
        )
    return RoutedCircuit(
        circuit=routed,
        initial_layout=initial_layout,
        final_layout=layout,
        swaps_inserted=swaps,
    )
