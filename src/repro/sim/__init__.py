"""Hamiltonian-level quantum simulation substrate.

The paper evaluates its approach with Hamiltonian-level simulation (QuTiP in
the original).  This subpackage provides the equivalent machinery:

- :mod:`repro.sim.propagate` — exact piecewise-constant propagation for the
  small (2-16 dimensional) systems used during pulse optimization.
- :mod:`repro.sim.statevector` — :func:`apply_gate`, the one local-operator
  kernel, for statevectors or ``(2^n, m)`` column blocks, with cached
  per-target transpose layouts.
- :mod:`repro.sim.trotter` — a Strang-split Trotter engine that evolves a
  full device (drives + always-on ZZ) layer by layer.
- :mod:`repro.sim.density` — density-matrix evolution with T1/T2 channels.
- :mod:`repro.sim.multilevel` — an n-level transmon model for leakage studies.
- :mod:`repro.sim.noise` — drive-noise (detuning / amplitude) models.
"""

#: Canonical simulation sample period (ns).  Pulse libraries are built and
#: Trotter engines stepped at this dt; defined here (before the submodule
#: imports, so they can ``from repro.sim import DEFAULT_DT`` during package
#: initialization) as the single source of truth.
DEFAULT_DT = 0.25

from repro.sim.propagate import propagate_piecewise, propagate_with_zz
from repro.sim.statevector import apply_gate
from repro.sim.trotter import TrotterEngine
from repro.sim.density import (
    amplitude_damping_kraus,
    apply_channel,
    DecoherenceModel,
    phase_damping_kraus,
)
from repro.sim.noise import DriveNoise
from repro.sim.trajectories import TrajectoryResult, execute_trajectories

__all__ = [
    "DEFAULT_DT",
    "propagate_piecewise",
    "propagate_with_zz",
    "apply_gate",
    "TrotterEngine",
    "amplitude_damping_kraus",
    "apply_channel",
    "DecoherenceModel",
    "phase_damping_kraus",
    "DriveNoise",
    "TrajectoryResult",
    "execute_trajectories",
]
