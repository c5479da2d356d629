"""A lightweight circuit optimization pass.

Real toolchains lower circuits before execution; the pass a VarSaw
workflow benefits from is small and local: :func:`cancel_adjacent`
drops self-inverse gate pairs (H H, X X, CX CX, ...) that only gates on
other qubits separate.  Measurement-basis suffixes appended per group
often create exactly this pattern.  Execution reaches the pass through
plan compilation: :mod:`repro.sim.plan` cancels the bit-exact subset of
self-inverse pairs before precomputing its gate schedule.
"""

from __future__ import annotations

from .circuit import Circuit, Instruction

__all__ = ["cancel_adjacent", "BITEXACT_SELF_INVERSE"]

#: Gates that square to the identity.
_SELF_INVERSE = {"h", "x", "y", "z", "cx", "cz", "swap", "i"}

#: Self-inverse gates whose matrices hold only 0/±1/±i entries, so
#: applying a pair is *bit-exact* under float arithmetic and dropping
#: the pair cannot change any downstream probability bit.  H is
#: excluded: (1/√2)·(1/√2) rounds, so H·H ≠ I bitwise.  The plan
#: compiler (:mod:`repro.sim.plan`) restricts cancellation to this set.
BITEXACT_SELF_INVERSE = frozenset({"i", "x", "y", "z", "cx", "cz", "swap"})


def cancel_adjacent(
    circuit: Circuit, gates: frozenset[str] | set[str] | None = None
) -> Circuit:
    """Remove self-inverse pairs separated only by commuting gates.

    Gates on disjoint qubits commute, so a pair cancels when no
    intervening gate touches any of its qubits.  For each incoming
    self-inverse gate the pass scans back through the emitted stack,
    skipping instructions on disjoint qubits, and cancels on an exact
    ``(name, qubits)`` match; the first instruction sharing a qubit
    blocks the search.  ``gates`` restricts which names may cancel
    (default: every self-inverse gate, including H).
    """
    cancelable = _SELF_INVERSE if gates is None else gates
    stack: list[Instruction] = []
    for ins in circuit.instructions:
        if ins.name in cancelable:
            touched = set(ins.qubits)
            matched = False
            for i in range(len(stack) - 1, -1, -1):
                prev = stack[i]
                if prev.name == ins.name and prev.qubits == ins.qubits:
                    del stack[i]
                    matched = True
                    break
                if touched & set(prev.qubits):
                    break
            if matched:
                continue
        stack.append(ins)
    out = Circuit(circuit.n_qubits, circuit.name)
    out.instructions = stack
    out.measured_qubits = set(circuit.measured_qubits)
    return out
