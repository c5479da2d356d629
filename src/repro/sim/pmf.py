"""Probability mass functions over measurement outcomes.

:class:`PMF` is the central data type that JigSaw/VarSaw reconstruction
operates on: the *Global-PMF* (all qubits), *Local-PMFs* (a measured subset
of qubits), and the mitigated *Output-PMF* are all instances.

A PMF stores a dense probability vector over ``2**n`` outcomes of ``n``
*labeled* qubits.  Labels let a Local-PMF remember which circuit qubits its
bits refer to, which is what Bayesian reconstruction needs when marginalizing
the Global-PMF onto the subset.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PMF"]


class PMF:
    """A distribution over bitstrings of a labeled qubit set.

    Parameters
    ----------
    probs:
        Length ``2**n`` nonnegative vector; it is normalized on construction.
    qubits:
        The circuit-qubit labels, most-significant first.  Defaults to
        ``(0, 1, ..., n-1)``.
    """

    __slots__ = ("probs", "qubits")

    def __init__(self, probs, qubits: tuple[int, ...] | None = None):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1:
            raise ValueError("probs must be a 1-D vector")
        size = probs.shape[0]
        n = int(math.log2(size)) if size > 0 else 0
        if size == 0 or 2**n != size:
            raise ValueError(f"probs length {size} is not a power of two")
        if np.any(probs < -1e-12):
            raise ValueError("probabilities must be nonnegative")
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if total <= 0:
            raise ValueError("probabilities sum to zero")
        if qubits is None:
            qubits = tuple(range(n))
        else:
            qubits = tuple(int(q) for q in qubits)
            if len(qubits) != n:
                raise ValueError(
                    f"{n}-qubit PMF needs {n} labels, got {len(qubits)}"
                )
            if len(set(qubits)) != n:
                raise ValueError("duplicate qubit labels")
        self.probs = probs / total
        self.qubits = qubits

    # ------------------------------------------------------------ constructors

    @classmethod
    def _trusted(cls, probs: np.ndarray, qubits: tuple[int, ...]) -> "PMF":
        """Internal: adopt an already-validated, already-normalized vector.

        Callers guarantee ``probs`` is a 1-D float vector of power-of-two
        length that a round trip through ``PMF(probs, qubits)`` would
        return bit-for-bit (nonnegative, summing to one) and that
        ``qubits`` is a clean label tuple.  Used on hot paths — the
        engine's vectorized noise pipeline, count conversion — where the
        constructor's validation is pure overhead.
        """
        pmf = cls.__new__(cls)
        pmf.probs = probs
        pmf.qubits = qubits
        return pmf

    @classmethod
    def _normalized(cls, probs: np.ndarray, qubits: tuple[int, ...]) -> "PMF":
        """Internal: normalize a trusted nonnegative vector into a PMF.

        Same contract as :meth:`_trusted` except the vector still needs
        the constructor's ``probs / probs.sum()`` step (which this
        replicates exactly; clipping a nonnegative vector is the
        identity, so skipping it leaves the bits unchanged).
        """
        total = probs.sum()
        if total <= 0:
            raise ValueError("probabilities sum to zero")
        return cls._trusted(probs / total, qubits)

    @classmethod
    def uniform(cls, n_qubits: int, qubits: tuple[int, ...] | None = None) -> "PMF":
        """The maximally mixed distribution on ``n_qubits`` bits."""
        return cls(np.full(2**n_qubits, 1.0 / 2**n_qubits), qubits)

    @classmethod
    def point(
        cls, n_qubits: int, outcome: int, qubits: tuple[int, ...] | None = None
    ) -> "PMF":
        """A delta distribution on integer ``outcome``."""
        probs = np.zeros(2**n_qubits)
        probs[outcome] = 1.0
        return cls(probs, qubits)

    # -------------------------------------------------------------- properties

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def as_dict(self, cutoff: float = 0.0) -> dict[str, float]:
        """Bitstring -> probability mapping, dropping entries <= ``cutoff``."""
        n = self.n_qubits
        return {
            format(i, f"0{n}b"): float(p)
            for i, p in enumerate(self.probs)
            if p > cutoff
        }

    # ------------------------------------------------------------- marginals

    def marginal(self, qubits) -> "PMF":
        """Marginal distribution over a subset of this PMF's qubit labels.

        The result's bit order follows the order given in ``qubits``.
        """
        qubits = tuple(int(q) for q in qubits)
        positions = []
        for q in qubits:
            if q not in self.qubits:
                raise ValueError(f"qubit {q} not in PMF labels {self.qubits}")
            positions.append(self.qubits.index(q))
        n = self.n_qubits
        tensor = self.probs.reshape((2,) * n)
        keep = positions
        drop = tuple(ax for ax in range(n) if ax not in keep)
        reduced = tensor.sum(axis=drop) if drop else tensor
        # reduced axes are ordered by ascending original axis; permute to the
        # requested order.
        kept_sorted = sorted(keep)
        perm = [kept_sorted.index(p) for p in keep]
        reduced = np.transpose(reduced, perm)
        return PMF(reduced.reshape(-1), qubits)

    # ------------------------------------------------------------- distances

    def tvd(self, other: "PMF") -> float:
        """Total variation distance to ``other`` (same qubit labels)."""
        self._check_compatible(other)
        return float(0.5 * np.abs(self.probs - other.probs).sum())

    def _check_compatible(self, other: "PMF") -> None:
        if self.qubits != other.qubits:
            raise ValueError(
                f"PMFs over different qubits: {self.qubits} vs {other.qubits}"
            )

    # ------------------------------------------------------------ arithmetic

    def mix(self, other: "PMF", weight: float) -> "PMF":
        """Convex combination ``(1-weight)*self + weight*other``."""
        self._check_compatible(other)
        if not 0.0 <= weight <= 1.0:
            raise ValueError("weight must be in [0, 1]")
        return PMF(
            (1.0 - weight) * self.probs + weight * other.probs, self.qubits
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PMF):
            return NotImplemented
        return self.qubits == other.qubits and np.allclose(
            self.probs, other.probs
        )

    def __repr__(self) -> str:
        return f"<PMF over qubits {self.qubits}>"
