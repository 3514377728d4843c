"""Density-matrix backend: ZZ crosstalk plus T1/T2 channels (Fig. 23).

Each pulsed layer applies its full ``2^n x 2^n`` Trotter unitary as
``rho -> U rho U^dag`` and then the per-qubit amplitude/phase-damping
channels for the layer duration.  Building ``U`` is the dominant ``4^n``
cost, which is exactly what the layer-propagator cache amortizes across
repeated layers.

``decoherence=None`` runs the same representation fully coherently —
useful for pinning density == statevector equivalence in tests.
"""

from __future__ import annotations

import numpy as np

from repro.qmath.fidelity import state_fidelity_dm
from repro.sim.density import DecoherenceModel, conjugate_local

from repro.runtime.backends.base import BackendOutcome, SimBackend

#: ``4^n`` scaling caps exact density-matrix execution well below the
#: statevector limit; the paper's decoherence study (Fig. 23) uses 6 qubits.
MAX_DENSITY_QUBITS = 8


class DensityBackend(SimBackend):
    """Exact open-system evolution (``4^n`` memory, <= 8 qubits)."""

    name = "density"
    uses_propagator_cache = True

    def __init__(self, decoherence: DecoherenceModel | None = None):
        self.decoherence = decoherence

    def validate(self, num_qubits):
        if num_qubits > MAX_DENSITY_QUBITS:
            raise ValueError(
                f"density-matrix execution is limited to "
                f"{MAX_DENSITY_QUBITS} qubits; the paper's decoherence "
                "study (Fig. 23) uses 6 — use the trajectories backend "
                "for larger devices"
            )

    def initial_state(self, num_qubits):
        dim = 2**num_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho

    def apply_virtual(self, state, op, qubits, num_qubits):
        return conjugate_local(state, op, qubits, num_qubits)

    def evolve_layer(self, state, engine, step, cache):
        if cache is not None and step.key is not None:
            u_layer = cache.unitary(
                step.key,
                lambda: engine.layer_unitary(step.duration, step.drives),
            )
        else:
            u_layer = engine.layer_unitary(step.duration, step.drives)
        rho = u_layer @ state @ u_layer.conj().T
        if self.decoherence is not None:
            rho = self.decoherence.apply(rho, step.duration, engine.num_qubits)
        return rho

    def score(self, state, ideal):
        return BackendOutcome(
            fidelity=state_fidelity_dm(state, ideal), density=state
        )
