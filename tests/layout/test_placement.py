"""Unit tests for layouts and noise-aware placement."""

import networkx as nx
import pytest

from repro.layout import (
    CouplingMap,
    Layout,
    best_measurement_placement,
    noise_aware_layout,
    noise_aware_path_layout,
)
from repro.noise import QubitReadoutError, ReadoutErrorModel


def readout_with_errors(errors):
    return ReadoutErrorModel(
        [QubitReadoutError(e, e) for e in errors]
    )


class TestLayout:
    def test_trivial(self):
        layout = Layout.trivial(3)
        assert layout.physical_qubits() == [0, 1, 2]

    def test_from_physical_list(self):
        layout = Layout.from_physical_list([4, 2, 0])
        assert layout.physical(0) == 4
        assert layout.logical(2) == 1
        assert layout.logical(3) is None

    def test_duplicate_physical_rejected(self):
        with pytest.raises(ValueError, match="share"):
            Layout({0: 1, 1: 1})

    def test_gapped_logicals_rejected(self):
        with pytest.raises(ValueError, match="0..n-1"):
            Layout({0: 0, 2: 2})

    def test_swap_physicals(self):
        layout = Layout.from_physical_list([0, 1, 2])
        swapped = layout.swap_physicals(1, 2)
        assert swapped.physical(1) == 2
        assert swapped.physical(2) == 1
        assert swapped.physical(0) == 0
        # swapping untouched physicals is a no-op for the mapping
        assert layout.swap_physicals(5, 6) == layout

    def test_equality(self):
        assert Layout.trivial(2) == Layout({0: 0, 1: 1})
        assert Layout.trivial(2) != Layout({0: 1, 1: 0})


class TestNoiseAwareLayout:
    def test_picks_low_error_connected_region(self):
        # Line of 6; the best three qubits by readout are 3, 4, 5.
        readout = readout_with_errors([0.09, 0.08, 0.07, 0.01, 0.02, 0.03])
        layout = noise_aware_layout(3, CouplingMap.line(6), readout)
        assert sorted(layout.physical_qubits()) == [3, 4, 5]

    def test_connectivity_beats_greedy_error(self):
        # Qubits 0 and 5 are the two best but are far apart: a 2-qubit
        # layout must be a connected pair, so one of them pairs with a
        # neighbor instead.
        readout = readout_with_errors([0.001, 0.05, 0.06, 0.07, 0.05, 0.002])
        layout = noise_aware_layout(2, CouplingMap.line(6), readout)
        physicals = sorted(layout.physical_qubits())
        assert physicals in ([0, 1], [4, 5])

    def test_best_lines_go_to_low_logical_indices(self):
        readout = readout_with_errors([0.05, 0.01, 0.03, 0.02])
        layout = noise_aware_layout(4, CouplingMap.line(4), readout)
        # logical 0 gets the best physical line (qubit 1)
        assert layout.physical(0) == 1

    def test_too_many_logicals_rejected(self):
        readout = readout_with_errors([0.01] * 3)
        with pytest.raises(ValueError, match="logical"):
            noise_aware_layout(4, CouplingMap.line(3), readout)

    def test_width_mismatch_rejected(self):
        readout = readout_with_errors([0.01] * 4)
        with pytest.raises(ValueError, match="width"):
            noise_aware_layout(2, CouplingMap.line(5), readout)

    def test_disconnected_device_uses_largest_component(self):
        readout = readout_with_errors([0.01, 0.02, 0.03, 0.04, 0.05])
        coupling = CouplingMap(5, [(0, 1), (2, 3), (3, 4)])
        layout = noise_aware_layout(3, coupling, readout)
        assert sorted(layout.physical_qubits()) == [2, 3, 4]

    def test_region_too_small_everywhere_rejected(self):
        readout = readout_with_errors([0.01, 0.02, 0.03, 0.04])
        coupling = CouplingMap(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="no connected region"):
            noise_aware_layout(3, coupling, readout)

    def test_heavy_hex_full_placement(self):
        readout = readout_with_errors(
            [0.01 + 0.001 * q for q in range(27)]
        )
        coupling = CouplingMap.heavy_hex_27()
        layout = noise_aware_layout(6, coupling, readout)
        placed = coupling.graph.subgraph(layout.physical_qubits())
        assert nx.is_connected(placed)


class TestBestMeasurementPlacement:
    def test_measured_qubits_get_best_lines(self):
        readout = readout_with_errors([0.05, 0.01, 0.04, 0.02])
        placement = best_measurement_placement(
            [0, 1], CouplingMap.line(4), readout
        )
        assert sorted(placement.values()) == [1, 3]

    def test_duplicates_rejected(self):
        readout = readout_with_errors([0.01] * 4)
        with pytest.raises(ValueError, match="duplicate"):
            best_measurement_placement(
                [0, 0], CouplingMap.line(4), readout
            )

    def test_too_many_measured_rejected(self):
        readout = readout_with_errors([0.01] * 2)
        with pytest.raises(ValueError, match="more measured"):
            best_measurement_placement(
                [0, 1, 2], CouplingMap.line(2), readout
            )


class TestPathLayout:
    def test_path_is_physically_consecutive(self):
        readout = readout_with_errors([0.05, 0.01, 0.02, 0.03, 0.04, 0.06])
        coupling = CouplingMap.line(6)
        layout = noise_aware_path_layout(4, coupling, readout)
        physicals = layout.physical_qubits()
        for a, b in zip(physicals, physicals[1:]):
            assert coupling.are_adjacent(a, b)

    def test_picks_lowest_error_path(self):
        readout = readout_with_errors([0.09, 0.08, 0.01, 0.01, 0.01, 0.09])
        layout = noise_aware_path_layout(3, CouplingMap.line(6), readout)
        assert sorted(layout.physical_qubits()) == [2, 3, 4]

    def test_single_qubit_path(self):
        readout = readout_with_errors([0.05, 0.01, 0.03])
        layout = noise_aware_path_layout(1, CouplingMap.line(3), readout)
        assert layout.physical_qubits() == [1]

    def test_heavy_hex_paths_exist_up_to_device_diameter(self):
        from repro.noise import ibmq_mumbai_like

        device = ibmq_mumbai_like()
        coupling = device.coupling_map
        for n in (2, 4, 6, 8):
            layout = noise_aware_path_layout(n, coupling, device.readout)
            physicals = layout.physical_qubits()
            assert len(set(physicals)) == n
            for a, b in zip(physicals, physicals[1:]):
                assert coupling.are_adjacent(a, b)

    def test_no_path_long_enough_rejected(self):
        # Star graph: longest simple path is 3 nodes.
        readout = readout_with_errors([0.01] * 4)
        star = CouplingMap(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError, match="no simple path"):
            noise_aware_path_layout(4, star, readout)

    def test_too_many_logicals_rejected(self):
        readout = readout_with_errors([0.01] * 2)
        with pytest.raises(ValueError, match="logical"):
            noise_aware_path_layout(3, CouplingMap.line(2), readout)
