"""Device coupling maps.

A :class:`CouplingMap` is an undirected connectivity graph over physical
qubits: a two-qubit gate is directly executable only between neighbors.
Topology constructors cover the devices the paper runs on — the 27-qubit
Falcon heavy-hex (IBMQ Mumbai) and the 7-qubit H shape (IBM Lagos /
Jakarta) — plus the synthetic line / ring / grid / full graphs tests
and examples use.
"""

from __future__ import annotations

import networkx as nx

__all__ = ["CouplingMap"]

#: Falcon r4/r5 heavy-hex edge list (IBMQ Mumbai and siblings).
_FALCON_27_EDGES = [
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
    (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
    (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
]

#: 7-qubit H-shape edge list (IBM Lagos, Jakarta, Perth, ...).
_H_SHAPE_7_EDGES = [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)]


class CouplingMap:
    """Undirected physical-qubit connectivity."""

    def __init__(self, n_qubits: int, edges):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        graph = nx.Graph()
        graph.add_nodes_from(range(n_qubits))
        for a, b in edges:
            if not (0 <= a < n_qubits and 0 <= b < n_qubits):
                raise ValueError(f"edge ({a}, {b}) out of range")
            if a == b:
                raise ValueError(f"self-loop on qubit {a}")
            graph.add_edge(int(a), int(b))
        self.graph = graph

    # ------------------------------------------------------------ topologies

    @classmethod
    def line(cls, n_qubits: int) -> "CouplingMap":
        return cls(n_qubits, [(i, i + 1) for i in range(n_qubits - 1)])

    @classmethod
    def ring(cls, n_qubits: int) -> "CouplingMap":
        if n_qubits < 3:
            raise ValueError("a ring needs at least 3 qubits")
        edges = [(i, (i + 1) % n_qubits) for i in range(n_qubits)]
        return cls(n_qubits, edges)

    @classmethod
    def grid(cls, rows: int, cols: int) -> "CouplingMap":
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be positive")
        edges = []
        for r in range(rows):
            for c in range(cols):
                q = r * cols + c
                if c + 1 < cols:
                    edges.append((q, q + 1))
                if r + 1 < rows:
                    edges.append((q, q + cols))
        return cls(rows * cols, edges)

    @classmethod
    def full(cls, n_qubits: int) -> "CouplingMap":
        edges = [
            (i, j)
            for i in range(n_qubits)
            for j in range(i + 1, n_qubits)
        ]
        return cls(n_qubits, edges)

    @classmethod
    def heavy_hex_27(cls) -> "CouplingMap":
        """The Falcon heavy-hex graph of IBMQ Mumbai (27 qubits)."""
        return cls(27, _FALCON_27_EDGES)

    @classmethod
    def h_shape_7(cls) -> "CouplingMap":
        """The 7-qubit H-shape graph of IBM Lagos / Jakarta."""
        return cls(7, _H_SHAPE_7_EDGES)

    # ------------------------------------------------------------ inspection

    @property
    def n_qubits(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def n_edges(self) -> int:
        return self.graph.number_of_edges()

    def neighbors(self, qubit: int) -> list[int]:
        self._check(qubit)
        return sorted(self.graph.neighbors(qubit))

    def are_adjacent(self, a: int, b: int) -> bool:
        self._check(a)
        self._check(b)
        return self.graph.has_edge(a, b)

    def shortest_path(self, a: int, b: int) -> list[int]:
        self._check(a)
        self._check(b)
        try:
            return nx.shortest_path(self.graph, a, b)
        except nx.NetworkXNoPath:
            raise ValueError(f"qubits {a} and {b} are disconnected") from None

    def _check(self, q: int) -> None:
        if not 0 <= q < self.n_qubits:
            raise ValueError(f"qubit {q} out of range")

    def __repr__(self) -> str:
        return f"CouplingMap(n_qubits={self.n_qubits}, edges={self.n_edges})"
