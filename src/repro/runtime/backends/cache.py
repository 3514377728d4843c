"""Layer-propagator cache: reuse the work of identical scheduled layers.

Scheduled circuits repeat layers constantly — QAOA/Ising cost layers, QV
rounds, echo sequences — and each repetition used to rebuild the same
per-layer artifacts from scratch.  Two of them are worth memoizing:

- the **drive list** (one step-op stack per pulsed gate), shared by every
  backend; and
- the full ``2^n x 2^n`` **layer unitary**, the dominant ``4^n`` cost of
  density-matrix execution (Fig. 23).

Entries are keyed by ``(drive signature, duration, dt)`` where the drive
signature is the layer's multiset of ``(gate name, qubits)`` — the exact
inputs :func:`repro.runtime.binding.drives_for_layer` and
:meth:`repro.sim.trotter.TrotterEngine.layer_unitary` consume once the
pulse library, device and noise model are fixed.  Those three are *not*
part of the key, so a cache instance must not outlive one
(library, device couplings, noise) combination; the executor creates a
fresh cache per execution by default and only shares one when the caller
explicitly passes it — the ``repro serve`` daemon keeps one instance per
(library, device, noise) combination for exactly this reason.

Reuse is bit-exact: a hit returns the very arrays a miss computed, so
cached and uncached runs produce identical fidelities.  Both maps are
:class:`~repro.memo.MemoCache` instances, so concurrent requests for one
missing key wait for the first builder instead of duplicating the
``4^n`` work.
"""

from __future__ import annotations

import numpy as np

from repro.memo import MemoCache
from repro.scheduling.layer import Layer


class LayerPropagatorCache:
    """Memoizes per-layer drives and (density-path) layer unitaries.

    ``maxsize`` bounds each of the two maps independently (FIFO);
    ``None`` keeps every entry.  Both maps count into the
    ``prop_cache.*`` telemetry counters.
    """

    def __init__(self, maxsize: int | None = None):
        self._drives = MemoCache("prop_cache", maxsize)
        self._unitaries = MemoCache("prop_cache", maxsize)

    @staticmethod
    def layer_key(layer: Layer, duration: float, dt: float) -> tuple:
        """(drive signature, duration, dt) — identical layers collide."""
        signature = tuple(
            (gate.name, tuple(gate.qubits)) for gate in layer.physical_gates
        )
        return (signature, duration, dt)

    def drives(self, key: tuple, build) -> tuple:
        """The drive list for ``key``, built once via ``build()``."""
        return self._drives.get(key, lambda: tuple(build()))

    def unitary(self, key: tuple, build) -> np.ndarray:
        """The full layer unitary for ``key``, built once via ``build()``."""
        return self._unitaries.get(key, build)

    @property
    def stats(self) -> dict[str, int]:
        drives, unitaries = self._drives.stats, self._unitaries.stats
        return {name: drives[name] + unitaries[name] for name in drives}

    hits = property(lambda self: self.stats["hits"])
    misses = property(lambda self: self.stats["misses"])
    evictions = property(lambda self: self.stats["evictions"])

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
