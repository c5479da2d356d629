"""Ising-form combinatorial problems for QAOA.

MaxCut is the canonical QAOA benchmark [Farhi et al. 2014, the paper's
ref 19].  A cut of graph ``G = (V, E)`` with weights ``w`` maps to the
diagonal Hamiltonian

    H = Σ_{(i,j) ∈ E}  w_ij/2 · (Z_i Z_j − 1)

whose ground energy is ``−(max cut)``: minimizing H maximizes the cut.
It is a :class:`~repro.hamiltonian.Hamiltonian` like any other, so
everything downstream (grouping, subsets, VarSaw) works unchanged.

Unlike molecular Hamiltonians these are single-basis (all-Z) problems —
the paper's Section 7.3 predicts VarSaw's *spatial* benefit is small for
them and the *temporal* benefit survives; the QAOA benches measure that.
"""

from __future__ import annotations

import networkx as nx

from ..hamiltonian import Hamiltonian
from ..pauli import PauliString

__all__ = [
    "maxcut_hamiltonian",
    "ring_maxcut",
    "random_regular_maxcut",
    "cut_value",
]


def _zz_string(n_qubits: int, i: int, j: int) -> PauliString:
    return PauliString.from_sparse(n_qubits, {i: "Z", j: "Z"})


def maxcut_hamiltonian(graph: nx.Graph, name: str = "") -> Hamiltonian:
    """The MaxCut Hamiltonian of a (possibly weighted) graph.

    Nodes must be ``0..n-1``.  Edge weights default to 1.0; the identity
    offset ``−Σ w/2`` is kept in the Hamiltonian so its ground energy is
    exactly ``−maxcut(G)``.
    """
    n = graph.number_of_nodes()
    if n < 2:
        raise ValueError("MaxCut needs at least 2 nodes")
    expected = set(range(n))
    if set(graph.nodes) != expected:
        raise ValueError("graph nodes must be labeled 0..n-1")
    if graph.number_of_edges() == 0:
        raise ValueError("graph has no edges")
    terms: list[tuple[float, PauliString]] = []
    offset = 0.0
    for i, j, data in graph.edges(data=True):
        weight = float(data.get("weight", 1.0))
        terms.append((weight / 2.0, _zz_string(n, i, j)))
        offset -= weight / 2.0
    terms.append((offset, PauliString.identity(n)))
    return Hamiltonian(terms, name=name or f"maxcut-{n}")


def ring_maxcut(n_qubits: int) -> Hamiltonian:
    """MaxCut on an unweighted ring — the standard QAOA warm-up.

    Even rings cut completely: max cut = n, ground energy = −n.
    """
    if n_qubits < 3:
        raise ValueError("a ring needs at least 3 nodes")
    graph = nx.cycle_graph(n_qubits)
    return maxcut_hamiltonian(graph, name=f"ring-maxcut-{n_qubits}")


def random_regular_maxcut(
    n_qubits: int, degree: int = 3, seed: int = 7
) -> Hamiltonian:
    """MaxCut on a random d-regular graph (the QAOA literature's staple)."""
    if n_qubits * degree % 2:
        raise ValueError("n_qubits * degree must be even")
    graph = nx.random_regular_graph(degree, n_qubits, seed=seed)
    graph = nx.convert_node_labels_to_integers(graph)
    return maxcut_hamiltonian(
        graph, name=f"regular{degree}-maxcut-{n_qubits}"
    )


def cut_value(graph: nx.Graph, assignment) -> float:
    """Total weight of edges cut by a ±1 / 0-1 node assignment.

    ``assignment`` is indexable by node; any two values compare unequal
    across the cut (bools, bits, or ±1 all work).
    """
    total = 0.0
    for i, j, data in graph.edges(data=True):
        if assignment[i] != assignment[j]:
            total += float(data.get("weight", 1.0))
    return total
