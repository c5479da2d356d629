"""Property-based tests for the simulator and noise channels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.noise import QubitReadoutError
from repro.sim import PMF, probabilities, run_statevector

from ..noise.finisher_rows import finish, readout_backend


@st.composite
def random_circuits(draw, n_qubits=3, max_gates=10):
    qc = Circuit(n_qubits)
    n_gates = draw(st.integers(0, max_gates))
    for _ in range(n_gates):
        kind = draw(st.sampled_from(["h", "x", "s", "t", "rx", "ry", "rz", "cx", "cz"]))
        q = draw(st.integers(0, n_qubits - 1))
        if kind in ("cx", "cz"):
            q2 = draw(
                st.integers(0, n_qubits - 1).filter(lambda v: v != q)
            )
            qc.append(kind, (q, q2))
        elif kind in ("rx", "ry", "rz"):
            qc.append(kind, q, draw(st.floats(-3.0, 3.0)))
        else:
            qc.append(kind, q)
    return qc


class TestUnitarity:
    @given(random_circuits())
    @settings(max_examples=80)
    def test_norm_preserved(self, qc):
        state = run_statevector(qc)
        assert np.isclose(np.linalg.norm(state), 1.0, atol=1e-9)

    @given(random_circuits())
    @settings(max_examples=80)
    def test_probabilities_valid(self, qc):
        probs = probabilities(run_statevector(qc))
        assert np.isclose(probs.sum(), 1.0)
        assert np.all(probs >= 0)


class TestReadoutChannel:
    """The noise finisher's readout channel, gate noise off."""

    @given(
        st.floats(0.0, 0.4),
        st.floats(0.0, 0.4),
        st.floats(0.0, 0.5),
    )
    @settings(max_examples=60)
    def test_channel_is_stochastic(self, p01, p10, crosstalk):
        backend = readout_backend(
            [QubitReadoutError(p01, p10)] * 2, crosstalk_strength=crosstalk
        )
        rng = np.random.default_rng(0)
        raw = rng.random(4) + 1e-6
        noisy = finish(backend, raw)
        assert np.isclose(noisy.probs.sum(), 1.0)
        assert np.all(noisy.probs >= 0)

    @given(st.floats(0.0, 0.3), st.floats(0.0, 0.3))
    @settings(max_examples=60)
    def test_channel_contracts_tvd(self, p01, p10):
        """A stochastic channel never increases TVD between two PMFs."""
        backend = readout_backend([QubitReadoutError(p01, p10)])
        a = PMF([0.9, 0.1], qubits=(0,))
        b = PMF([0.2, 0.8], qubits=(0,))
        na = finish(backend, a.probs)
        nb = finish(backend, b.probs)
        assert na.tvd(nb) <= a.tvd(b) + 1e-12
