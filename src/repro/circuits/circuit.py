"""A minimal, fast quantum circuit IR.

:class:`Circuit` is an ordered list of :class:`Instruction` records plus a
set of measured qubits.  It supports everything the VarSaw reproduction
needs: building parameterized ansatz circuits, appending Pauli-basis change
gates, restricting measurement to a subset of qubits (JigSaw's "circuits
with partial measurement"), binding parameters, and composition.

The IR is deliberately backend-agnostic — :mod:`repro.sim` interprets it
with a dense statevector engine, and :mod:`repro.noise` consumes its
measured-qubit set when applying readout error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gates import GATE_ARITY, is_rotation
from .parameter import Parameter

__all__ = ["Instruction", "Circuit"]


@dataclass(frozen=True)
class Instruction:
    """One gate application: name, target qubits, optional parameter."""

    name: str
    qubits: tuple[int, ...]
    param: float | Parameter | None = None

    def is_bound(self) -> bool:
        """True if this instruction carries no unresolved symbolic parameter."""
        return not isinstance(self.param, Parameter)

    def bind(self, values: dict[str, float]) -> "Instruction":
        """Return a copy with any symbolic parameter resolved via ``values``."""
        if isinstance(self.param, Parameter):
            return Instruction(self.name, self.qubits, self.param.bind(values))
        return self


class Circuit:
    """An ``n_qubits`` quantum circuit: gate list + measured-qubit set.

    Measurement is modeled declaratively: :meth:`measure` marks qubits as
    measured and the simulator/noise model act on that set.  By default no
    qubit is measured; :meth:`measure_all` marks all of them.

    Example
    -------
    >>> qc = Circuit(3)
    >>> qc.h(0)
    >>> qc.cx(0, 1)
    >>> qc.cx(1, 2)
    >>> qc.measure_all()
    >>> sorted(qc.measured_qubits)
    [0, 1, 2]
    """

    def __init__(self, n_qubits: int, name: str = ""):
        if n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        self.n_qubits = int(n_qubits)
        self.name = name
        self.instructions: list[Instruction] = []
        self.measured_qubits: set[int] = set()

    # ------------------------------------------------------------------ core

    def append(
        self,
        name: str,
        qubits,
        param: float | Parameter | None = None,
    ) -> None:
        """Append gate ``name`` on ``qubits`` (int or iterable of ints)."""
        if isinstance(qubits, int):
            qubits = (qubits,)
        qubits = tuple(int(q) for q in qubits)
        if name not in GATE_ARITY:
            raise ValueError(f"unknown gate {name!r}")
        if GATE_ARITY[name] != len(qubits):
            raise ValueError(
                f"gate {name!r} acts on {GATE_ARITY[name]} qubits, "
                f"got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubits in {qubits}")
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.n_qubits}-qubit circuit"
                )
        if is_rotation(name):
            if param is None:
                raise ValueError(f"gate {name!r} requires a parameter")
        elif param is not None:
            raise ValueError(f"gate {name!r} takes no parameter")
        self.instructions.append(Instruction(name, qubits, param))

    # ------------------------------------------------------ gate conveniences

    def i(self, q: int) -> None:
        self.append("i", q)

    def x(self, q: int) -> None:
        self.append("x", q)

    def y(self, q: int) -> None:
        self.append("y", q)

    def z(self, q: int) -> None:
        self.append("z", q)

    def h(self, q: int) -> None:
        self.append("h", q)

    def s(self, q: int) -> None:
        self.append("s", q)

    def sdg(self, q: int) -> None:
        self.append("sdg", q)

    def t(self, q: int) -> None:
        self.append("t", q)

    def tdg(self, q: int) -> None:
        self.append("tdg", q)

    def sx(self, q: int) -> None:
        self.append("sx", q)

    def rx(self, theta, q: int) -> None:
        self.append("rx", q, theta)

    def ry(self, theta, q: int) -> None:
        self.append("ry", q, theta)

    def rz(self, theta, q: int) -> None:
        self.append("rz", q, theta)

    def p(self, theta, q: int) -> None:
        self.append("p", q, theta)

    def cx(self, control: int, target: int) -> None:
        self.append("cx", (control, target))

    def cz(self, a: int, b: int) -> None:
        self.append("cz", (a, b))

    def swap(self, a: int, b: int) -> None:
        self.append("swap", (a, b))

    # ------------------------------------------------------------ measurement

    def measure(self, qubits) -> None:
        """Mark ``qubits`` (int or iterable) as measured."""
        if isinstance(qubits, int):
            qubits = (qubits,)
        for q in qubits:
            q = int(q)
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} out of range")
            self.measured_qubits.add(q)

    def measure_all(self) -> None:
        """Mark every qubit as measured."""
        self.measured_qubits = set(range(self.n_qubits))

    # -------------------------------------------------------------- transform

    @property
    def parameters(self) -> set[str]:
        """Names of all unresolved symbolic parameters in the circuit."""
        return {
            ins.param.name
            for ins in self.instructions
            if isinstance(ins.param, Parameter)
        }

    def is_bound(self) -> bool:
        """True if no instruction carries a symbolic parameter."""
        return all(ins.is_bound() for ins in self.instructions)

    def bind(self, values: dict[str, float]) -> "Circuit":
        """Return a new circuit with symbolic parameters resolved."""
        out = Circuit(self.n_qubits, self.name)
        out.instructions = [ins.bind(values) for ins in self.instructions]
        out.measured_qubits = set(self.measured_qubits)
        return out

    def copy(self) -> "Circuit":
        """Shallow-ish copy (instructions are immutable records)."""
        out = Circuit(self.n_qubits, self.name)
        out.instructions = list(self.instructions)
        out.measured_qubits = set(self.measured_qubits)
        return out

    def compose(self, other: "Circuit") -> "Circuit":
        """Return ``self`` followed by ``other`` (same width required)."""
        if other.n_qubits != self.n_qubits:
            raise ValueError(
                f"cannot compose {self.n_qubits}-qubit circuit with "
                f"{other.n_qubits}-qubit circuit"
            )
        out = self.copy()
        out.instructions.extend(other.instructions)
        out.measured_qubits |= other.measured_qubits
        return out

    # ------------------------------------------------------------- inspection

    @property
    def num_gates(self) -> int:
        return len(self.instructions)

    @property
    def num_two_qubit_gates(self) -> int:
        return sum(1 for ins in self.instructions if len(ins.qubits) == 2)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Circuit{label}: {self.n_qubits} qubits, "
            f"{len(self.instructions)} gates, "
            f"{len(self.measured_qubits)} measured>"
        )
