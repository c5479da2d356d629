"""Shot-count containers.

:class:`Counts` is what an execution backend hands back after sampling:
a dense count vector over the ``2**n`` outcomes of a labeled qubit set,
the same layout as :class:`~repro.sim.pmf.PMF`.  Sampling stores the
multinomial draw as-is and :meth:`Counts.to_pmf` normalizes it, so no
outcome is ever formatted as a bitstring on the hot path.  The
string-keyed views (:attr:`Counts.data`, :meth:`Counts.items`,
``counts["01"]``, :meth:`Counts.most_frequent`) list outcomes in index
order for the CLI, serve results and tests.  Counts convert losslessly
to a PMF and merge (used when results for the same circuit are
accumulated across batches).
"""

from __future__ import annotations

import numpy as np

from .pmf import PMF

__all__ = ["Counts"]


class Counts:
    """Measurement counts over a labeled qubit set.

    ``vector[i]`` counts outcome ``i``; string keys are bitstrings in
    qubit-label order (most significant first, same convention as
    :class:`PMF`).  Sampled counts are integers; analytic counts
    (:meth:`from_pmf_exact`) are floats.
    """

    __slots__ = ("vector", "qubits")

    def __init__(self, data: dict[str, int], qubits: tuple[int, ...]):
        qubits = tuple(int(q) for q in qubits)
        n = len(qubits)
        vector = np.zeros(2**n, dtype=np.int64)
        for key, value in data.items():
            if len(key) != n or set(key) - {"0", "1"}:
                raise ValueError(f"bad bitstring {key!r} for {n} qubits")
            try:
                whole = int(value)
            except (TypeError, ValueError, OverflowError):
                whole = None
            if whole is None or whole != value:
                raise ValueError(
                    f"count for {key!r} is not a whole number: {value!r}"
                )
            if whole < 0:
                raise ValueError(f"negative count for {key!r}")
            vector[int(key or "0", 2)] += whole
        self.vector = vector
        self.qubits = qubits

    @classmethod
    def _adopt(
        cls, vector: np.ndarray, qubits: tuple[int, ...]
    ) -> "Counts":
        """Internal: wrap a nonnegative count vector over ``qubits``."""
        obj = cls.__new__(cls)
        obj.vector = vector
        obj.qubits = qubits
        return obj

    @classmethod
    def from_pmf_samples(
        cls, pmf: PMF, shots: int, rng: np.random.Generator
    ) -> "Counts":
        """Sample ``shots`` outcomes from ``pmf``."""
        return cls._adopt(rng.multinomial(shots, pmf.probs), pmf.qubits)

    @classmethod
    def from_pmf_exact(cls, pmf: PMF, shots: int) -> "Counts":
        """Expected (analytic) counts: ``pmf * shots`` without sampling.

        The values are floats — the exact expectation of
        :meth:`from_pmf_samples` over the shot noise — so estimators
        whose statistic is linear in the counts (any PMF-based
        expectation) become zero-variance.  Used by analytic execution
        backends (see :mod:`repro.backends.density`); the constructor
        accepts whole numbers only.
        """
        probs = pmf.probs
        vector = np.where(probs > 0, probs * shots, 0.0)
        return cls._adopt(vector, pmf.qubits)

    @property
    def n_qubits(self) -> int:
        """Width of the counted register."""
        return len(self.qubits)

    @property
    def data(self) -> dict[str, int | float]:
        """Nonzero counts keyed by bitstring, in outcome-index order."""
        n = self.n_qubits
        return {
            format(i, f"0{n}b"): self.vector[i].item()
            for i in np.flatnonzero(self.vector)
        }

    @property
    def shots(self) -> int | float:
        """Total recorded shots (a float for analytic counts).

        Analytic counts add up one outcome at a time in index order, so
        the total matches summing :attr:`data`'s values.
        """
        if self.vector.dtype.kind == "f":
            return sum(self.vector.tolist())
        return int(self.vector.sum())

    def to_pmf(self) -> PMF:
        """Empirical distribution of these counts."""
        if not self.vector.any():
            raise ValueError("cannot convert empty counts to PMF")
        # Counts are nonnegative, so the constructor's checks can't
        # fire; normalization is identical.
        return PMF._normalized(self.vector.astype(float), self.qubits)

    def most_frequent(self) -> str:
        """The modal bitstring (the lowest index among ties)."""
        if not self.vector.any():
            raise ValueError("empty counts")
        return format(int(np.argmax(self.vector)), f"0{self.n_qubits}b")

    def __getitem__(self, key: str) -> int | float:
        if len(key) != self.n_qubits or set(key) - {"0", "1"}:
            return 0
        return self.vector[int(key or "0", 2)].item()

    def __len__(self) -> int:
        return int(np.count_nonzero(self.vector))

    def __iter__(self):
        return iter(self.data)

    def items(self):
        """``(bitstring, count)`` pairs of the nonzero outcomes."""
        return self.data.items()

    def __repr__(self) -> str:
        return f"<Counts: {self.shots} shots over qubits {self.qubits}>"
