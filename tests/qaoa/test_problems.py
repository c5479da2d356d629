"""Unit tests for QAOA problem Hamiltonians."""

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.hamiltonian import ground_state_energy
from repro.qaoa import (
    cut_value,
    maxcut_hamiltonian,
    random_regular_maxcut,
    ring_maxcut,
)


def best_cut_brute_force(graph: nx.Graph) -> tuple[float, tuple[int, ...]]:
    """Exhaustive MaxCut for small graphs: (best value, one argmax)."""
    n = graph.number_of_nodes()
    if n > 20:
        raise ValueError("brute force capped at 20 nodes")
    best = -np.inf
    best_bits: tuple[int, ...] = ()
    for bits in itertools.product((0, 1), repeat=n):
        value = cut_value(graph, bits)
        if value > best:
            best, best_bits = value, bits
    return best, best_bits


class TestMaxCutHamiltonian:
    def test_ground_energy_is_negative_maxcut(self):
        graph = nx.cycle_graph(6)
        ham = maxcut_hamiltonian(graph)
        best, _ = best_cut_brute_force(graph)
        assert ground_state_energy(ham) == pytest.approx(-best)

    def test_weighted_graph(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=2.5)
        graph.add_edge(1, 2, weight=0.5)
        ham = maxcut_hamiltonian(graph)
        best, _ = best_cut_brute_force(graph)
        assert best == pytest.approx(3.0)
        assert ground_state_energy(ham) == pytest.approx(-3.0)

    def test_triangle_is_frustrated(self):
        # A triangle can cut at most 2 of its 3 edges.
        graph = nx.complete_graph(3)
        ham = maxcut_hamiltonian(graph)
        assert ground_state_energy(ham) == pytest.approx(-2.0)

    def test_terms_are_zz_plus_identity(self):
        ham = maxcut_hamiltonian(nx.cycle_graph(4))
        for _, pauli in ham.non_identity_terms():
            assert pauli.weight == 2
            assert set(pauli.label) == {"I", "Z"}

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            maxcut_hamiltonian(nx.empty_graph(1))

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            maxcut_hamiltonian(nx.empty_graph(3))

    def test_bad_node_labels_rejected(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        with pytest.raises(ValueError, match="0..n-1"):
            maxcut_hamiltonian(graph)


class TestRingAndRegular:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_even_ring_cuts_completely(self, n):
        assert ground_state_energy(ring_maxcut(n)) == pytest.approx(-n)

    @pytest.mark.parametrize("n", [5, 7])
    def test_odd_ring_is_frustrated(self, n):
        assert ground_state_energy(ring_maxcut(n)) == pytest.approx(-(n - 1))

    def test_tiny_ring_rejected(self):
        with pytest.raises(ValueError):
            ring_maxcut(2)

    def test_regular_graph_term_count(self):
        ham = random_regular_maxcut(8, degree=3, seed=1)
        # 3-regular on 8 nodes: 12 edges -> 12 ZZ terms + identity offset.
        assert len(ham.non_identity_terms()) == 12

    def test_regular_graph_parity_rejected(self):
        with pytest.raises(ValueError):
            random_regular_maxcut(5, degree=3)

    def test_seed_reproducibility(self):
        a = random_regular_maxcut(8, seed=3)
        b = random_regular_maxcut(8, seed=3)
        assert [
            (c, str(p)) for c, p in a.non_identity_terms()
        ] == [(c, str(p)) for c, p in b.non_identity_terms()]


class TestCutUtilities:
    def test_cut_value_counts_cut_edges(self):
        graph = nx.cycle_graph(4)
        assert cut_value(graph, [0, 1, 0, 1]) == pytest.approx(4.0)
        assert cut_value(graph, [0, 0, 0, 0]) == pytest.approx(0.0)

    def test_cut_value_accepts_plus_minus_one(self):
        graph = nx.cycle_graph(4)
        assert cut_value(graph, [1, -1, 1, -1]) == pytest.approx(4.0)

    def test_brute_force_cap(self):
        with pytest.raises(ValueError, match="capped"):
            best_cut_brute_force(nx.cycle_graph(21))

    def test_brute_force_argmax_achieves_value(self):
        graph = nx.random_regular_graph(3, 8, seed=5)
        best, bits = best_cut_brute_force(graph)
        assert cut_value(graph, bits) == pytest.approx(best)
