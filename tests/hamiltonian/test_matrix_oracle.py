"""Differential oracle: the mask-built matrix vs the frozen kron builder.

``Hamiltonian.to_sparse_matrix`` sums each X-mask group's phase
vectors (``P|i> = i^#Y (-1)^popcount(i & z) |i ^ x>``) and builds one
CSR matrix.  Its ``indptr``, ``indices`` and data bytes must equal
:func:`tests.hamiltonian.kron_reference.reference_sparse_matrix` on the
same terms — signed zeros, dropped cancellations and index order
included — on every Table 2 workload up to 8 qubits, on the spin
models and on drawn Pauli sums of 1-6 qubits.  The four uncalibrated
10- and 12-qubit workloads take seconds each through kron, so they are
checked against digests of the frozen builder's output instead.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hamiltonian import (
    MOLECULES,
    Hamiltonian,
    build_hamiltonian,
    heisenberg_hamiltonian,
    paper_tfim,
    tfim_hamiltonian,
    xy_hamiltonian,
)

from .kron_reference import reference_sparse_matrix

#: blake2b-128 of the frozen builder's indptr, indices (both as int64)
#: and data, recorded once.  None of these workloads has a reference
#: energy, so no ground-state calibration touches their terms.
WIDE_DIGESTS = {
    "H6-10": "95ca6998996d0c180f5f9d1211230d8d",
    "H2O-12": "41b8c2962ef38aeb2f117678ca85d071",
    "BeH2-12": "93801abf0bd3b0b00f76f168353695a4",
    "N2-12": "6e9d135bbfad2d1d2603570fded203e7",
}

NARROW_KEYS = [k for k, spec in MOLECULES.items() if spec.n_qubits <= 8]


def csr_digest(matrix) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in (
        matrix.indptr.astype(np.int64),
        matrix.indices.astype(np.int64),
        matrix.data,
    ):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def assert_matches_reference(ham: Hamiltonian) -> None:
    expected = reference_sparse_matrix(
        [(c, p.label) for c, p in ham.terms], ham.n_qubits
    )
    actual = ham.to_sparse_matrix()
    assert actual.shape == expected.shape
    assert actual.has_sorted_indices
    for name in ("indptr", "indices"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert actual.data.dtype == expected.data.dtype
    assert actual.data.tobytes() == expected.data.tobytes()


@pytest.mark.parametrize("key", NARROW_KEYS)
def test_table2_workloads_match_kron(key):
    assert_matches_reference(build_hamiltonian(key))


@pytest.mark.parametrize(
    "ham",
    [
        tfim_hamiltonian(5, coupling=1.0, field=0.7),
        tfim_hamiltonian(6, coupling=-0.5, field=1.3, periodic=True),
        heisenberg_hamiltonian(5),
        heisenberg_hamiltonian(
            6, jx=0.3, jy=-1.1, jz=0.8, field=0.2, periodic=True
        ),
        xy_hamiltonian(5, coupling=0.9, anisotropy=0.4, field=0.1),
        xy_hamiltonian(6, anisotropy=-1.0, periodic=True),
        paper_tfim(),
    ],
    ids=[
        "tfim5", "tfim6-periodic", "heisenberg5", "heisenberg6-periodic",
        "xy5", "xy6-periodic", "paper_tfim",
    ],
)
def test_spin_models_match_kron(ham):
    assert_matches_reference(ham)


@st.composite
def pauli_sums(draw):
    """Term lists with repeats, zero or cancelling coefficients, many Ys."""
    n = draw(st.integers(1, 6))
    chars = draw(st.sampled_from(["IXYZ", "IYYZ", "XY", "YYYX"]))
    labels = st.text(alphabet=chars, min_size=n, max_size=n)
    coeffs = st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25]),
        st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
    )
    terms = draw(st.lists(st.tuples(coeffs, labels), min_size=1,
                          max_size=24))
    # Repeat some strings so that merged coefficients cancel as well.
    repeats = draw(st.lists(st.sampled_from(terms), max_size=6))
    return terms + [(-c, label) for c, label in repeats]


@settings(max_examples=300, deadline=None)
@given(pauli_sums())
def test_drawn_pauli_sums_match_kron(terms):
    assert_matches_reference(Hamiltonian(terms))


@pytest.mark.parametrize("key", sorted(WIDE_DIGESTS))
def test_wide_workloads_match_recorded_kron_digests(key):
    matrix = build_hamiltonian(key).to_sparse_matrix()
    assert matrix.indptr.dtype == matrix.indices.dtype == np.int32
    assert matrix.has_sorted_indices
    assert csr_digest(matrix) == WIDE_DIGESTS[key]

