"""Density-matrix evolution with amplitude- and phase-damping channels.

Decoherence (Fig. 23) is modelled digitally: each scheduled layer evolves the
density matrix coherently (``rho -> U rho U^dag`` with the Trotter layer
unitary) and is followed by per-qubit amplitude damping (T1 relaxation) and
pure dephasing (from T2) channels whose strengths depend on the layer
duration.  This is the standard circuit-level noise model and matches the
paper's "relaxation and dephasing characterized by T1 and T2".
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.sim.statevector import apply_gate


def amplitude_damping_kraus(p: float) -> list[np.ndarray]:
    """Kraus operators of single-qubit amplitude damping with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"damping probability must be in [0, 1], got {p}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def phase_damping_kraus(p: float) -> list[np.ndarray]:
    """Kraus operators of single-qubit pure dephasing with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dephasing probability must be in [0, 1], got {p}")
    k0 = np.sqrt(1.0 - p) * np.eye(2, dtype=complex)
    k1 = np.sqrt(p) * np.diag([1.0, 0.0]).astype(complex)
    k2 = np.sqrt(p) * np.diag([0.0, 1.0]).astype(complex)
    return [k0, k1, k2]


def conjugate_local(
    rho: np.ndarray, op: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """``O rho O^dag`` for a local operator via two column-applications.

    ``A = O rho``, then ``O A^dag`` equals ``(O rho O^dag)^dag``.
    """
    left = apply_gate(rho, op, qubits, num_qubits)
    right = apply_gate(left.conj().T, op, qubits, num_qubits)
    return right.conj().T


def apply_channel(
    rho: np.ndarray,
    kraus: Sequence[np.ndarray],
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a Kraus channel on ``qubits`` to density matrix ``rho``."""
    out = np.zeros_like(rho)
    for k in kraus:
        out += conjugate_local(rho, k, qubits, num_qubits)
    return out


@dataclass(frozen=True)
class DecoherenceModel:
    """T1/T2 decoherence parameters (in ns) applied per layer.

    The paper sets ``T1 = T2``; then the pure-dephasing rate is
    ``1/T_phi = 1/T2 - 1/(2 T1) = 1/(2 T1)``.
    """

    t1_ns: float
    t2_ns: float

    def __post_init__(self):
        if self.t1_ns <= 0 or self.t2_ns <= 0:
            raise ValueError("T1 and T2 must be positive")
        if self.t2_ns > 2.0 * self.t1_ns + 1e-9:
            raise ValueError("physical constraint violated: T2 <= 2*T1")

    @property
    def t_phi_ns(self) -> float:
        """Pure dephasing time; ``inf`` when T2 saturates 2*T1."""
        rate = 1.0 / self.t2_ns - 1.0 / (2.0 * self.t1_ns)
        if rate <= 0.0:
            return float("inf")
        return 1.0 / rate

    def damping_probability(self, duration_ns: float) -> float:
        return 1.0 - float(np.exp(-duration_ns / self.t1_ns))

    def dephasing_probability(self, duration_ns: float) -> float:
        t_phi = self.t_phi_ns
        if np.isinf(t_phi):
            return 0.0
        # Coherence decays as exp(-t/T_phi); the phase-damping channel with
        # parameter p scales coherences by (1 - p).
        return 1.0 - float(np.exp(-duration_ns / t_phi))

    def apply(self, rho: np.ndarray, duration_ns: float, num_qubits: int) -> np.ndarray:
        """Apply the per-qubit T1/T_phi channels for ``duration_ns``."""
        p_amp = self.damping_probability(duration_ns)
        p_phi = self.dephasing_probability(duration_ns)
        amp = amplitude_damping_kraus(p_amp)
        phi = phase_damping_kraus(p_phi)
        for q in range(num_qubits):
            rho = apply_channel(rho, amp, [q], num_qubits)
            if p_phi > 0.0:
                rho = apply_channel(rho, phi, [q], num_qubits)
        return rho
