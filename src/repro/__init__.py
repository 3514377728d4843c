"""repro — a reproduction of "Suppressing ZZ Crosstalk of Quantum Computers
through Pulse and Scheduling Co-Optimization" (ASPLOS 2022).

Public API tour:

- :mod:`repro.device` — topologies, crosstalk sampling, :class:`Device`.
- :mod:`repro.pulses` — pulse shapes and the four pulse methods
  (Gaussian / OptCtrl / Pert / DCG) behind :func:`build_library`.
- :mod:`repro.circuits` — circuit IR, benchmark circuits, compilation.
- :mod:`repro.scheduling` — ParSched baseline and ZZXSched (Algorithm 2).
- :mod:`repro.graphs` — Algorithm 1 (alpha-optimal suppression).
- :mod:`repro.runtime` — Hamiltonian-level execution and fidelities.
- :mod:`repro.experiments` — one module per paper figure/table.
- :mod:`repro.verify` — randomized differential verification (generators,
  oracles, golden regression fixtures) behind ``repro verify``.

Quickstart::

    from repro.circuits import compile_circuit
    from repro.circuits.library import BENCHMARKS
    from repro.device import grid, make_device
    from repro.pulses import build_library
    from repro.runtime import execute_statevector
    from repro.scheduling import par_schedule, zzx_schedule

    device = make_device(grid(3, 4))
    compiled = compile_circuit(BENCHMARKS["QAOA"](6), device.topology)
    baseline = execute_statevector(
        par_schedule(compiled.circuit), device, build_library("gaussian"))
    ours = execute_statevector(
        zzx_schedule(compiled.circuit, device.topology), device,
        build_library("pert"))
    print(baseline.fidelity, "->", ours.fidelity)
"""

import time as _time

#: ``time.perf_counter()`` when this package began importing.  ``repro.cli``
#: reports the time from here to a ready command line as the
#: ``startup.imports`` span.
IMPORT_STARTED = _time.perf_counter()

from repro.version import __version__  # noqa: E402

from repro.device import Device, grid, line, make_device
from repro.pulses import GatePulse, PulseLibrary, build_library
from repro.circuits import Circuit, compile_circuit, transpile
from repro.scheduling import (
    Schedule,
    SuppressionRequirement,
    ZZXConfig,
    par_schedule,
    zzx_schedule,
)
from repro.graphs import SuppressionPlan, alpha_optimal_suppression
from repro.runtime import (
    ExecutionResult,
    execute,
    execute_density,
    execute_statevector,
)

__all__ = [
    "__version__",
    "Device",
    "grid",
    "line",
    "make_device",
    "GatePulse",
    "PulseLibrary",
    "build_library",
    "Circuit",
    "compile_circuit",
    "transpile",
    "Schedule",
    "SuppressionRequirement",
    "ZZXConfig",
    "par_schedule",
    "zzx_schedule",
    "SuppressionPlan",
    "alpha_optimal_suppression",
    "ExecutionResult",
    "execute",
    "execute_density",
    "execute_statevector",
]
