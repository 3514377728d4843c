"""Strang-split Trotter engine for full-device evolution.

During a scheduled layer the device Hamiltonian is

    H(t) = SUM_g H_ctrl^(g)(t)  +  SUM_(i,j) lambda_ij Z_i Z_j

where the first sum runs over the gates (pulses) of the layer and the second
over *all* couplings of the device — the always-on ZZ crosstalk.  The ZZ part
is diagonal, so a symmetric (Strang) splitting

    U(dt) ~= D(dt/2) . U_drive(dt) . D(dt/2)

costs one elementwise multiply plus a handful of local 2x2/4x4 applies per
step.  Consecutive half-phases merge into full phases, so a layer of N steps
performs exactly N+1 diagonal multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.qmath.tensor import zz_diagonal
from repro.sim import DEFAULT_DT
from repro.sim.statevector import apply_gate


@dataclass(frozen=True)
class LayerDrive:
    """A pulse acting on ``qubits`` during a layer.

    ``step_ops`` has shape ``(n_steps, d, d)`` with ``d = 2**len(qubits)``;
    ``step_ops[k]`` is the exact propagator of the drive Hamiltonian over the
    k-th time step.  After its steps are exhausted the qubits idle (ZZ only).
    """

    qubits: tuple[int, ...]
    step_ops: np.ndarray


class TrotterEngine:
    """Evolves statevectors (or unitary columns) through scheduled layers."""

    def __init__(
        self,
        num_qubits: int,
        couplings: Sequence[tuple[int, int, float]],
        dt: float = DEFAULT_DT,
    ):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.num_qubits = num_qubits
        self.dt = dt
        self.couplings = list(couplings)
        self._zz_diag = zz_diagonal(self.couplings, num_qubits)
        self._phase_full = np.exp(-1.0j * self._zz_diag * dt)
        self._phase_half = np.exp(-1.0j * self._zz_diag * dt / 2.0)

    def num_steps(self, duration: float) -> int:
        """Number of Trotter steps for a layer of ``duration`` ns."""
        return max(1, int(round(duration / self.dt)))

    def evolve_layer(
        self, state: np.ndarray, duration: float, drives: Sequence[LayerDrive]
    ) -> np.ndarray:
        """Evolve ``state`` through one layer of ``duration`` ns."""
        n_steps = self.num_steps(duration)
        for drive in drives:
            if len(drive.step_ops) > n_steps:
                raise ValueError(
                    f"drive on {drive.qubits} has {len(drive.step_ops)} steps "
                    f"but the layer only has {n_steps}"
                )
        psi = state * self._phase_half
        for k in range(n_steps):
            for drive in drives:
                if k < len(drive.step_ops):
                    psi = apply_gate(
                        psi, drive.step_ops[k], drive.qubits, self.num_qubits
                    )
            phase = self._phase_full if k < n_steps - 1 else self._phase_half
            psi = psi * phase
        return psi

    def evolve_idle(self, state: np.ndarray, duration: float) -> np.ndarray:
        """Pure ZZ evolution (no drives) — exact, single diagonal multiply."""
        return state * np.exp(-1.0j * self._zz_diag * duration)

    def layer_unitary(
        self, duration: float, drives: Sequence[LayerDrive]
    ) -> np.ndarray:
        """Full ``2^n x 2^n`` propagator of a layer (for density-matrix use).

        Only sensible for small devices (n <= ~8).
        """
        dim = 2**self.num_qubits
        n_steps = self.num_steps(duration)
        mat = np.eye(dim, dtype=complex)
        mat = self._phase_half[:, None] * mat
        for k in range(n_steps):
            for drive in drives:
                if k < len(drive.step_ops):
                    mat = apply_gate(
                        mat, drive.step_ops[k], drive.qubits, self.num_qubits
                    )
            phase = self._phase_full if k < n_steps - 1 else self._phase_half
            mat = phase[:, None] * mat
        return mat
