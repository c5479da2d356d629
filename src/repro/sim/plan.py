"""Compiled parametric circuit plans.

VarSaw's tuning loop evaluates the *same circuit structure* thousands of
times with different parameter bindings.  The gate-by-gate interpreter in
:mod:`repro.sim.statevector` re-derives everything per evaluation: it
looks the matrix up, validates its shape, and lets ``tensordot``
re-normalize the contraction axes for every gate of every binding.  A
:class:`CircuitPlan` does that work once per *structure*:

* the instruction list is reduced with the transpiler's
  :func:`~repro.circuits.transpile.cancel_adjacent` pass, restricted to
  :data:`~repro.circuits.transpile.BITEXACT_SELF_INVERSE` pairs whose
  removal cannot change any probability bit (identity gates are dropped
  the same way the interpreter skips them);
* every surviving gate gets a precomputed axis permutation (and its
  inverse) so execution is ``transpose -> reshape -> one 2-D GEMM ->
  reshape -> transpose`` — the exact arithmetic ``tensordot`` performs,
  minus the per-call bookkeeping;
* rotation gates (``rx``/``ry``/``rz``/``p``) become *slots*: the plan
  stores their position, and :meth:`CircuitPlan.run` builds each 2x2
  matrix from the binding vector with the same scalar
  :func:`~repro.circuits.gates.rotation_matrix` the interpreter uses.

:meth:`CircuitPlan.run_batch` additionally vectorizes across the
parameter axis: the batch is stacked on a leading axis (state shape
``(batch, 2, ..., 2)``) and one broadcast ``matmul`` advances every
binding through a gate at once.  NumPy evaluates that broadcast as one
GEMM per batch element over the same operands the single-state path
uses, so batched amplitudes are bit-identical to running each binding
alone.

Correctness contract (pinned by ``tests/properties``): for any bound
circuit, ``probabilities(plan.run(plan.slot_values(c)))`` is
**bit-identical** to ``probabilities(run_statevector(c))``.  Canceled
bit-exact pairs can flip the sign of a zero amplitude, which the Born
rule erases; every nonzero amplitude matches bitwise.

Noise accounting trap: depolarizing weight is a function of the
*original* circuit's (1q, 2q) gate counts.  The plan records that count
as :attr:`CircuitPlan.gate_load` **before** any fusion, and the noise
pipeline must charge from it — never from the fused op list.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from ..circuits import Circuit, ROTATION_GATES, gate_matrix, rotation_matrix
from ..circuits.transpile import BITEXACT_SELF_INVERSE, cancel_adjacent

__all__ = [
    "CircuitPlan",
    "axis_permutation",
    "compile_plan",
    "structure_fingerprint",
]


def structure_fingerprint(circuit: Circuit) -> str:
    """Digest of a circuit's *structure*: gate names + qubit tuples.

    Rotation parameters are excluded (they are plan slots, bound at run
    time), as are measured qubits (plans compute full statevectors), so
    every binding of one ansatz shares a single compiled plan.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(f"p:{circuit.n_qubits}".encode())
    for ins in circuit.instructions:
        h.update(f"|{ins.name}:{','.join(map(str, ins.qubits))}".encode())
    return h.hexdigest()


@functools.lru_cache(maxsize=4096)
def axis_permutation(
    axes: tuple[int, ...], n_axes: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose moving ``axes`` to the front, and its inverse.

    Every contraction kernel applies a matrix to ``k`` axes of a
    ``(2,)*n_axes`` tensor the same way: ``transpose(perm) ->
    reshape(2^k, -1) -> GEMM -> reshape -> transpose(inv)``.  Plans use
    it on a statevector's qubit axes; :mod:`repro.sim.density` on rho's
    row and column axes.  Memoized: circuits revisit the same few
    qubit tuples.
    """
    rest = tuple(a for a in range(n_axes) if a not in axes)
    perm = axes + rest
    return perm, tuple(int(i) for i in np.argsort(perm))


class _PlanOp:
    """One compiled gate: its matrix (or slot) and axis permutations."""

    __slots__ = ("name", "matrix", "slot", "rows", "perm", "inv_perm",
                 "batch_perm", "batch_inv_perm")

    def __init__(
        self,
        name: str,
        matrix: np.ndarray | None,
        slot: int | None,
        qubits: tuple[int, ...],
        n_qubits: int,
    ):
        self.name = name
        self.matrix = matrix
        self.slot = slot
        self.rows = 2 ** len(qubits)
        self.perm, self.inv_perm = axis_permutation(qubits, n_qubits)
        self.batch_perm = (0,) + tuple(p + 1 for p in self.perm)
        self.batch_inv_perm = (0,) + tuple(p + 1 for p in self.inv_perm)


class CircuitPlan:
    """A circuit compiled to a reusable, parameter-slotted gate schedule.

    Build with :func:`compile_plan`.  A plan is immutable and safe to
    share across threads: :meth:`run` and :meth:`run_batch` only read
    it.  One plan serves every parameter binding of its structure — the
    engine caches plans by :func:`structure_fingerprint` next to its
    PMF cache.
    """

    def __init__(
        self,
        n_qubits: int,
        ops: list[_PlanOp],
        num_slots: int,
        gate_load: tuple[int, int],
        structure_key: str,
        fused_gates: int,
    ):
        self.n_qubits = n_qubits
        self._ops = ops
        self.num_slots = num_slots
        #: Original-circuit (1q, 2q) gate counts.  Depolarizing noise
        #: must be charged from this, never from the fused op list.
        self.gate_load = gate_load
        self.structure_key = structure_key
        #: Instructions removed by bit-exact cancellation + identity
        #: dropping (diagnostic; noise accounting ignores fusion).
        self.fused_gates = fused_gates
        self._shape = (2,) * n_qubits
        self._dim = 2**n_qubits

    def __repr__(self) -> str:
        return (
            f"<CircuitPlan n={self.n_qubits} ops={len(self._ops)} "
            f"slots={self.num_slots} fused={self.fused_gates}>"
        )

    # ------------------------------------------------------------- binding

    def slot_values(self, circuit: Circuit) -> list[float]:
        """Extract this plan's rotation angles from a bound circuit.

        ``circuit`` must share the plan's structure; its rotation
        parameters, in instruction order, are the binding vector.
        """
        values: list[float] = []
        for ins in circuit.instructions:
            if ins.name in ROTATION_GATES:
                param = ins.param
                if param is None or not isinstance(param, (int, float)):
                    raise ValueError(
                        f"cannot bind unbound parameter {param!r}; "
                        "bind the circuit before executing its plan"
                    )
                values.append(float(param))
        if len(values) != self.num_slots:
            raise ValueError(
                f"circuit has {len(values)} rotation parameters; "
                f"plan expects {self.num_slots}"
            )
        return values

    def _check_values(self, values) -> list[float]:
        if len(values) != self.num_slots:
            raise ValueError(
                f"expected {self.num_slots} slot values, got {len(values)}"
            )
        return [float(v) for v in values]

    def _initial(self, initial_state: np.ndarray | None) -> np.ndarray:
        if initial_state is None:
            state = np.zeros(self._dim, dtype=complex)
            state[0] = 1.0
            return state
        if initial_state.shape != (self._dim,):
            raise ValueError(
                f"initial state has wrong shape {initial_state.shape} "
                f"for {self.n_qubits} qubits"
            )
        return initial_state.astype(complex, copy=True)

    # ----------------------------------------------------------- execution

    def run(
        self, values, initial_state: np.ndarray | None = None
    ) -> np.ndarray:
        """Execute one binding; return the final statevector.

        ``values`` supplies one angle per rotation slot (see
        :meth:`slot_values`).  Amplitudes match the interpreter's
        bitwise (up to the sign of zero amplitudes where bit-exact
        pairs were fused).
        """
        values = self._check_values(values)
        state = self._initial(initial_state)
        ops = self._ops
        if not ops:
            return state
        shape = self._shape
        tensor = state.reshape(shape)
        for op in ops:
            matrix = op.matrix
            if matrix is None:
                matrix = rotation_matrix(op.name, values[op.slot])
            # The reshape of the transposed view copies into the same
            # C-order (2^k, rest) matrix tensordot builds internally,
            # so the GEMM sees bit-identical operands.
            tmp = tensor.transpose(op.perm).reshape(op.rows, -1)
            out = matrix @ tmp
            tensor = out.reshape(shape).transpose(op.inv_perm)
        return tensor.reshape(self._dim)

    def run_batch(
        self, bindings, initial_state: np.ndarray | None = None
    ) -> np.ndarray:
        """Execute many bindings at once; return shape ``(B, 2**n)``.

        ``bindings`` is a sequence of slot-value vectors.  The whole
        batch advances through each gate with one broadcast ``matmul``
        over the ``(batch, 2, ..., 2)`` stacked state; row ``b`` of the
        result is bit-identical to ``run(bindings[b], initial_state)``.
        """
        rows = [self._check_values(v) for v in bindings]
        batch = len(rows)
        if batch == 0:
            return np.zeros((0, self._dim), dtype=complex)
        states = np.zeros((batch, self._dim), dtype=complex)
        if initial_state is None:
            states[:, 0] = 1.0
        else:
            states[:] = self._initial(initial_state)
        ops = self._ops
        if not ops:
            return states
        shape = (batch,) + self._shape
        tensor = states.reshape(shape)
        for op in ops:
            matrix = op.matrix
            if matrix is None:
                matrix = np.stack(
                    [rotation_matrix(op.name, row[op.slot]) for row in rows]
                )
            tmp = tensor.transpose(op.batch_perm).reshape(
                batch, op.rows, -1
            )
            out = matrix @ tmp
            tensor = out.reshape(shape).transpose(op.batch_inv_perm)
        return tensor.reshape(batch, self._dim)


def compile_plan(circuit: Circuit) -> CircuitPlan:
    """Compile ``circuit`` (bound or not) into a :class:`CircuitPlan`.

    Records the original (1q, 2q) gate counts for noise accounting,
    then reduces the instruction list (bit-exact pair cancellation +
    identity dropping) and precomputes each surviving gate's axis
    permutations.  Rotation gates become slots in instruction order;
    their parameters, bound or symbolic, are ignored until run time.
    """
    n = circuit.n_qubits
    g2 = circuit.num_two_qubit_gates
    g1 = circuit.num_gates - g2
    reduced = cancel_adjacent(circuit, gates=BITEXACT_SELF_INVERSE)
    ops: list[_PlanOp] = []
    slot = 0
    for ins in reduced.instructions:
        if ins.name == "i":
            continue
        if ins.name in ROTATION_GATES:
            ops.append(_PlanOp(ins.name, None, slot, ins.qubits, n))
            slot += 1
        else:
            ops.append(
                _PlanOp(ins.name, gate_matrix(ins.name), None, ins.qubits, n)
            )
    return CircuitPlan(
        n_qubits=n,
        ops=ops,
        num_slots=slot,
        gate_load=(g1, g2),
        structure_key=structure_fingerprint(circuit),
        fused_gates=len(circuit.instructions) - len(ops),
    )
