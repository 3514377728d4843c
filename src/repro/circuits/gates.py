"""Gate IR and the matrix registry.

A :class:`Gate` is an immutable (name, qubits, params) triple.  The registry
maps names to matrix constructors so circuits can be simulated exactly and
transpilation can be verified unitarily.

Native hardware set (paper Sec 7.1.2):
``rz`` (virtual, 0 ns), ``rx90``, ``rzx90``, and the scheduler's ``id``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.qmath.paulis import ID2, SX, SY, SZ
from repro.qmath.unitaries import CNOT, CZ, HADAMARD, SWAP, rx, ry, rz, rzx

#: Gates that execute as pulses on hardware.
PHYSICAL_NATIVE = frozenset({"rx90", "rzx90", "id"})
#: Virtual gates (software frame changes, zero duration).
VIRTUAL_NATIVE = frozenset({"rz"})
NATIVE_GATES = PHYSICAL_NATIVE | VIRTUAL_NATIVE


@dataclass(frozen=True)
class Gate:
    """One circuit operation."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {self.name} has duplicate qubits {self.qubits}")

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_virtual(self) -> bool:
        return self.name in VIRTUAL_NATIVE

    @property
    def is_native(self) -> bool:
        return self.name in NATIVE_GATES

    def matrix(self) -> np.ndarray:
        """The ideal unitary of this gate (local dimension)."""
        return gate_matrix(self.name, self.params)

    def __repr__(self) -> str:
        args = ", ".join(f"{p:.4g}" for p in self.params)
        body = f"({args})" if args else ""
        return f"{self.name}{body}@{list(self.qubits)}"


#: The interning table behind :func:`identity_gate`: one shared
#: ``Gate("id", (q,))`` per qubit index.  Gates are frozen, so layers may
#: share them; the table grows only with the widest device scheduled.
IDENTITY_GATES: dict[int, Gate] = {}


def identity_gate(qubit: int) -> Gate:
    """The interned identity gate on ``qubit`` (ZZXSched's padding)."""
    gate = IDENTITY_GATES.get(qubit)
    if gate is None:
        # setdefault keeps one winner if two threads intern the same qubit.
        gate = IDENTITY_GATES.setdefault(qubit, Gate("id", (qubit,)))
    return gate


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    return rz(phi) @ ry(theta) @ rz(lam)


def _cp(theta: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, np.exp(1.0j * theta)]).astype(complex)


def _rzz(theta: float) -> np.ndarray:
    phase = np.exp(-0.5j * theta)
    return np.diag([phase, phase.conjugate(), phase.conjugate(), phase]).astype(
        complex
    )


_FIXED = {
    "id": ID2,
    "x": SX,
    "y": SY,
    "z": SZ,
    "h": HADAMARD,
    "s": np.diag([1.0, 1.0j]).astype(complex),
    "sdg": np.diag([1.0, -1.0j]).astype(complex),
    "t": np.diag([1.0, np.exp(0.25j * np.pi)]).astype(complex),
    "tdg": np.diag([1.0, np.exp(-0.25j * np.pi)]).astype(complex),
    "cx": CNOT,
    "cz": CZ,
    "swap": SWAP,
}

_PARAMETRIC = {
    "rx": rx,
    "ry": ry,
    "rz": rz,
    "cp": _cp,
    "rzz": _rzz,
    "u3": _u3,
}


def gate_matrix(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Matrix of a registered gate."""
    if name == "rx90":
        return rx(np.pi / 2.0)
    if name == "rzx90":
        return rzx(np.pi / 2.0)
    if name in _FIXED:
        if params:
            raise ValueError(f"gate {name} takes no parameters")
        return _FIXED[name]
    if name in _PARAMETRIC:
        return _PARAMETRIC[name](*params)
    raise ValueError(f"unknown gate {name!r}")


def known_gate(name: str) -> bool:
    return name in _FIXED or name in _PARAMETRIC or name in ("rx90", "rzx90")
