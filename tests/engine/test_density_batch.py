"""Engine batches hash and evolve each circuit body once, on every backend.

A JigSaw batch submits one fully measured circuit and its subset
circuits: the same gates, measured on fewer qubits.  The engine groups
such specs by body, hands one circuit per body to the backend's
``circuit_probabilities_batch`` hook (here ``density`` and
``clifford``), and finishes every spec with its own measured qubits,
readout mapping and gate load in the batch noise finisher.  Results
and the ledger must equal one-spec-at-a-time execution exactly.  The
subsets are copies of one bound circuit, sharing its instructions, so
the batch walks their gates to hash the body once.
"""

import numpy as np
import pytest

import repro.backends.density as density_module
import repro.engine.spec as spec_module
from repro.ansatz import EfficientSU2
from repro.backends import CliffordBackend, DensityBackend
from repro.circuits import Circuit
from repro.engine import CircuitSpec, body_fingerprint
from repro.engine.engine import ExecutionEngine
from repro.mitigation import jigsaw_mitigate, sliding_windows
from repro.noise import ibmq_mumbai_like

N_QUBITS = 6
SHOTS = 512


@pytest.fixture
def density_calls(monkeypatch):
    """Every circuit the density backend evolves, in call order."""
    calls = []
    original = density_module.run_density_matrix

    def counting(circuit, *args, **kwargs):
        calls.append(circuit)
        return original(circuit, *args, **kwargs)

    monkeypatch.setattr(density_module, "run_density_matrix", counting)
    return calls


@pytest.fixture
def body_walks(monkeypatch):
    """Every circuit whose gates a fingerprint walks, in call order."""
    walks = []
    original = spec_module._feed_body

    def counting(h, circuit):
        walks.append(circuit)
        return original(h, circuit)

    monkeypatch.setattr(spec_module, "_feed_body", counting)
    return walks


def bound_ansatz(seed: int) -> Circuit:
    ansatz = EfficientSU2(N_QUBITS, reps=2, entanglement="full")
    rng = np.random.default_rng(seed)
    return ansatz.bind(rng.uniform(-np.pi, np.pi, ansatz.num_parameters))


def jigsaw_specs(bound: Circuit, windows=None) -> list[tuple]:
    """The Global (all qubits) plus its best-mapped subset circuits.

    ``windows`` defaults to the window-2 sliding windows (five on six
    qubits, as in the density benchmark workload).
    """
    whole = bound.copy()
    whole.measure_all()
    specs = [(whole, False)]
    for window in windows or sliding_windows(bound.n_qubits, 2):
        subset = bound.copy()
        subset.measure(window)
        specs.append((subset, True))
    return specs


def run_batch(engine, specs):
    batch = engine.new_batch()
    handles = [batch.submit_circuit(c, SHOTS, m) for c, m in specs]
    batch.run()
    return handles


@pytest.mark.parametrize("window", [1, 2])
def test_jigsaw_batch_evolves_once(density_calls, window):
    backend = DensityBackend(ibmq_mumbai_like(), seed=7)
    engine = ExecutionEngine(backend)
    windows = sliding_windows(N_QUBITS, window)
    specs = jigsaw_specs(bound_ansatz(0), windows)
    handles = run_batch(engine, specs)
    n_specs = 1 + N_QUBITS - window + 1
    assert len(density_calls) == 1
    assert backend.circuits_run == len(specs) == n_specs
    assert backend.shots_run == n_specs * SHOTS
    assert engine.stats.simulations == n_specs
    assert engine.stats.jobs_submitted == n_specs
    alone = DensityBackend(ibmq_mumbai_like(), seed=7)
    for handle, (circuit, map_to_best) in zip(handles, specs):
        expected = alone.exact_pmf(circuit, map_to_best)
        assert handle.pmf().qubits == expected.qubits
        assert np.array_equal(handle.pmf().probs, expected.probs)


def test_same_structure_different_angles_never_merge(density_calls):
    backend = DensityBackend(ibmq_mumbai_like(), seed=7)
    engine = ExecutionEngine(backend)
    first = jigsaw_specs(bound_ansatz(1))
    second = jigsaw_specs(bound_ansatz(2))
    handles = run_batch(engine, first + second)
    assert len(density_calls) == 2
    assert backend.circuits_run == 12
    assert engine.stats.simulations == 12
    alone = DensityBackend(ibmq_mumbai_like(), seed=7)
    for handle, (circuit, map_to_best) in zip(handles, first + second):
        expected = alone.exact_pmf(circuit, map_to_best)
        assert np.array_equal(handle.pmf().probs, expected.probs)
    assert not np.array_equal(handles[0].pmf().probs, handles[6].pmf().probs)


def test_a_repeated_spec_still_dedups_and_is_charged(density_calls):
    backend = DensityBackend(ibmq_mumbai_like(), seed=7)
    engine = ExecutionEngine(backend)
    specs = jigsaw_specs(bound_ansatz(3))
    handles = run_batch(engine, specs + specs[:1])
    assert len(density_calls) == 1
    assert backend.circuits_run == 7
    assert engine.stats.simulations == 6
    assert handles[-1].source == "dedup"
    assert np.array_equal(handles[-1].pmf().probs, handles[0].pmf().probs)


def test_jigsaw_mitigate_evolves_the_body_once(density_calls):
    backend = DensityBackend(ibmq_mumbai_like(), seed=7)
    bound = bound_ansatz(4)
    result = jigsaw_mitigate(backend, bound, shots=SHOTS, window=2)
    assert len(density_calls) == 1
    assert backend.circuits_run == result.circuits_executed == 6
    alone = DensityBackend(ibmq_mumbai_like(), seed=7)
    pmfs = [result.global_pmf] + result.local_pmfs
    for pmf, (circuit, map_to_best) in zip(pmfs, jigsaw_specs(bound)):
        expected = alone.exact_pmf(circuit, map_to_best)
        assert pmf.qubits == expected.qubits
        assert np.array_equal(pmf.probs, expected.probs)


def test_clifford_subsets_share_one_stabilizer_run():
    backend = CliffordBackend(ibmq_mumbai_like(), seed=5)
    engine = ExecutionEngine(backend)
    ghz = Circuit(4)
    ghz.h(0)
    for q in range(3):
        ghz.cx(q, q + 1)
    specs = jigsaw_specs(ghz, [(0, 1), (1, 2), (2, 3)])
    handles = run_batch(engine, specs)
    assert backend.stabilizer_runs == 1
    assert backend.circuits_run == 4
    alone = CliffordBackend(ibmq_mumbai_like(), seed=5)
    for handle, (circuit, map_to_best) in zip(handles, specs):
        expected = alone.exact_pmf(circuit, map_to_best)
        assert np.array_equal(handle.pmf().probs, expected.probs)


class TestOneBodyHashPerBatch:
    def test_global_and_subsets_walk_the_gates_once_per_batch(
        self, body_walks, density_calls
    ):
        engine = ExecutionEngine(DensityBackend(ibmq_mumbai_like(), seed=7))
        specs = jigsaw_specs(bound_ansatz(5))
        first = run_batch(engine, specs)
        assert len(body_walks) == 1
        # A warm PMF cache still needs each job's fingerprint: one walk.
        second = run_batch(engine, specs)
        assert len(body_walks) == 2
        assert len(density_calls) == 1
        assert {h.source for h in second} == {"cache"}
        assert len({h.spec.body for h in first + second}) == 1
        for a, b in zip(first, second):
            assert np.array_equal(a.pmf().probs, b.pmf().probs)

    def test_two_bindings_walk_twice(self, body_walks, density_calls):
        engine = ExecutionEngine(DensityBackend(ibmq_mumbai_like(), seed=7))
        specs = jigsaw_specs(bound_ansatz(6)) + jigsaw_specs(bound_ansatz(7))
        run_batch(engine, specs)
        assert len(body_walks) == 2
        assert len(density_calls) == 2

    def test_an_appended_gate_is_hashed_and_evolved_on_its_own(
        self, body_walks, density_calls
    ):
        backend = DensityBackend(ibmq_mumbai_like(), seed=7)
        engine = ExecutionEngine(backend)
        bound = bound_ansatz(8)
        longer = bound.copy()
        longer.x(0)
        longer.measure_all()
        specs = jigsaw_specs(bound) + [(longer, False)]
        handles = run_batch(engine, specs)
        assert len(body_walks) == 2
        assert len(density_calls) == 2
        assert density_calls[1] is longer
        assert handles[-1].spec.body == body_fingerprint(longer)
        assert handles[-1].spec.body != handles[0].spec.body
        alone = DensityBackend(ibmq_mumbai_like(), seed=7)
        expected = alone.exact_pmf(longer, False)
        assert np.array_equal(handles[-1].pmf().probs, expected.probs)
        assert not np.array_equal(
            handles[-1].pmf().probs, handles[0].pmf().probs
        )

    def test_empty_bodies_of_different_widths_stay_apart(self, body_walks):
        engine = ExecutionEngine(DensityBackend(ibmq_mumbai_like(), seed=7))
        narrow, wide = Circuit(2), Circuit(3)
        narrow.measure_all()
        wide.measure_all()
        handles = run_batch(engine, [(narrow, False), (wide, False)])
        assert len(body_walks) == 2
        assert handles[0].spec.body != handles[1].spec.body
        assert handles[0].pmf().qubits == (0, 1)
        assert handles[1].pmf().qubits == (0, 1, 2)

    def test_fingerprints_separate_measurement_and_mapping(self, body_walks):
        engine = ExecutionEngine(DensityBackend(ibmq_mumbai_like(), seed=7))
        specs = jigsaw_specs(bound_ansatz(9))
        whole, _ = specs[0]
        subset, _ = specs[1]
        handles = run_batch(
            engine, specs + [(subset, False), (whole, False), (whole, True)]
        )
        assert len(body_walks) == 1
        prints = [h._fingerprint for h in handles]
        # Six jigsaw specs, an unmapped subset and a mapped Global are
        # eight distinct jobs; the repeated Global coalesces onto the
        # first.
        assert len(set(prints)) == 8
        assert prints[-2] == prints[0]
        assert handles[-2].source == "dedup"
        assert [h.source for h in handles].count("simulated") == 8

    def test_a_spec_built_outside_a_batch_fingerprints_alike(self, body_walks):
        engine = ExecutionEngine(DensityBackend(ibmq_mumbai_like(), seed=7))
        specs = jigsaw_specs(bound_ansatz(10))
        handles = run_batch(engine, specs)
        assert len(body_walks) == 1
        for handle, (circuit, map_to_best) in zip(handles, specs):
            alone = CircuitSpec(circuit, SHOTS, map_to_best)
            assert alone.body == handle.spec.body
            assert alone.fingerprint() == handle._fingerprint
        # Built outside a batch, each spec walks its own gates.
        assert len(body_walks) == 1 + len(specs)
