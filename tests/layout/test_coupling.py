"""Unit tests for coupling maps."""

import networkx as nx
import pytest

from repro.layout import CouplingMap


class TestConstruction:
    def test_line(self):
        cm = CouplingMap.line(5)
        assert cm.n_qubits == 5
        assert cm.n_edges == 4
        assert cm.are_adjacent(2, 3)
        assert not cm.are_adjacent(0, 4)

    def test_ring(self):
        cm = CouplingMap.ring(5)
        assert cm.n_edges == 5
        assert cm.are_adjacent(4, 0)

    def test_tiny_ring_rejected(self):
        with pytest.raises(ValueError):
            CouplingMap.ring(2)

    def test_grid(self):
        cm = CouplingMap.grid(2, 3)
        assert cm.n_qubits == 6
        # row neighbors and column neighbors
        assert cm.are_adjacent(0, 1)
        assert cm.are_adjacent(0, 3)
        assert not cm.are_adjacent(2, 3)

    def test_full(self):
        cm = CouplingMap.full(4)
        assert cm.n_edges == 6

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CouplingMap(3, [(0, 5)])
        with pytest.raises(ValueError, match="self-loop"):
            CouplingMap(3, [(1, 1)])

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            CouplingMap(0, [])


class TestDeviceTopologies:
    def test_heavy_hex_27(self):
        cm = CouplingMap.heavy_hex_27()
        assert cm.n_qubits == 27
        assert nx.is_connected(cm.graph)
        # heavy-hex degree never exceeds 3
        assert all(len(cm.neighbors(q)) <= 3 for q in range(27))

    def test_h_shape_7(self):
        cm = CouplingMap.h_shape_7()
        assert cm.n_qubits == 7
        assert nx.is_connected(cm.graph)
        assert cm.n_edges == 6  # a tree
        assert sorted(cm.neighbors(1)) == [0, 2, 3]
        assert sorted(cm.neighbors(5)) == [3, 4, 6]


class TestDistances:
    @staticmethod
    def hops(cm, a, b):
        return len(cm.shortest_path(a, b)) - 1

    def test_line_distance(self):
        cm = CouplingMap.line(6)
        assert self.hops(cm, 0, 5) == 5
        assert self.hops(cm, 3, 3) == 0

    def test_ring_wraps(self):
        cm = CouplingMap.ring(6)
        assert self.hops(cm, 0, 5) == 1
        assert self.hops(cm, 0, 3) == 3

    def test_shortest_path_endpoints(self):
        cm = CouplingMap.grid(3, 3)
        path = cm.shortest_path(0, 8)
        assert path[0] == 0
        assert path[-1] == 8
        assert len(path) == nx.shortest_path_length(cm.graph, 0, 8) + 1
        for a, b in zip(path, path[1:]):
            assert cm.are_adjacent(a, b)

    def test_disconnected_rejected(self):
        cm = CouplingMap(4, [(0, 1), (2, 3)])
        assert not nx.is_connected(cm.graph)
        with pytest.raises(ValueError, match="disconnected"):
            cm.shortest_path(0, 3)
