"""The engine's state cache: one prepared state per (ansatz content, params).

``ExecutionEngine.prepare_state(s)`` keys a state by the ansatz's
``content_key`` plus the parameter vector's float64 bytes.  The key
must separate any two ansatzes whose bound circuits differ, even when
their gate structures agree (QAOA's angles are 2γ·coefficient), must
let two instances with the same content share one state, and a hit
must bind no circuit.
"""

import networkx as nx
import numpy as np
import pytest

from repro.ansatz import EfficientSU2
from repro.engine import EngineConfig, ExecutionEngine
from repro.noise import SimulatorBackend
from repro.qaoa import QAOAAnsatz
from repro.qaoa.problems import maxcut_hamiltonian
from repro.sim import run_statevector


def weighted_ring(weight: float) -> QAOAAnsatz:
    """QAOA on a 4-ring: every weight gives the same gate structure."""
    graph = nx.cycle_graph(4)
    nx.set_edge_attributes(graph, weight, "weight")
    return QAOAAnsatz(maxcut_hamiltonian(graph), reps=1)


def engine() -> ExecutionEngine:
    return ExecutionEngine(SimulatorBackend(), EngineConfig())


def assert_separate(first, second, params):
    """The two ansatzes never share a state at ``params``."""
    assert first.content_key != second.content_key
    eng = engine()
    a = eng.prepare_state(first, params)
    b = eng.prepare_state(second, params)
    assert eng.stats.state_cache.hits == 0
    assert eng.stats.state_cache.misses == 2
    assert not np.array_equal(a, b)
    # Each is its own bound circuit's state, bit for bit.
    assert np.array_equal(a, run_statevector(first.bind(params)))
    assert np.array_equal(b, run_statevector(second.bind(params)))


def test_qaoa_edge_weights_separate_states():
    light, heavy = weighted_ring(1.0), weighted_ring(2.0)
    assert [i.name for i in light.bind([0.4, 0.3]).instructions] == [
        i.name for i in heavy.bind([0.4, 0.3]).instructions
    ]
    assert_separate(light, heavy, [0.4, 0.3])


def test_su2_entanglement_separates_states():
    full = EfficientSU2(4, reps=1, entanglement="full")
    linear = EfficientSU2(4, reps=1, entanglement="linear")
    params = np.linspace(-1.0, 1.0, full.num_parameters)
    assert_separate(full, linear, params)


@pytest.mark.parametrize(
    "build",
    [
        lambda: EfficientSU2(4, reps=2, entanglement="circular"),
        lambda: weighted_ring(1.5),
    ],
    ids=["su2", "qaoa"],
)
def test_equal_content_shares_one_state_and_a_hit_binds_nothing(
    build, monkeypatch
):
    first, second = build(), build()
    assert first is not second
    assert first.content_key == second.content_key
    params = np.linspace(-0.5, 0.5, first.num_parameters)
    eng = engine()
    state = eng.prepare_state(first, params)
    binds = []
    original = type(second).bind
    monkeypatch.setattr(
        type(second),
        "bind",
        lambda self, values: binds.append(1) or original(self, values),
    )
    # Another instance, the same values as a list: one cached state.
    assert eng.prepare_state(second, list(params)) is state
    pair = eng.prepare_states(second, [params, params])
    assert all(s is state for s in pair)
    assert binds == []
    assert eng.stats.state_cache.hits == 3


def test_distinct_parameter_bytes_miss():
    su2 = EfficientSU2(3, reps=1, entanglement="linear")
    params = np.zeros(su2.num_parameters)
    flipped = params.copy()
    flipped[0] = -0.0
    eng = engine()
    eng.prepare_state(su2, params)
    eng.prepare_state(su2, flipped)
    eng.prepare_state(su2, params.reshape(1, -1)[0])
    assert eng.stats.state_cache.misses == 2
    assert eng.stats.state_cache.hits == 1
