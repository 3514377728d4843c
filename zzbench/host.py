"""Host record for every benchmark run (recorded only, never used to scale).

The host's CPU speed drifts by itself, so each run's detail line carries
what the machine looked like — core count, affinity, BLAS thread pins,
load average, interpreter and numpy versions — a fixed calibration
kernel timed before and after the run, and the program's CPU time and
the hypervisor's steal time over the timed window.  No metric is
divided by the calibration: dividing by a kernel timed between ops was
measured not to steady the numbers (per-op CV 0.136 -> 0.118).
"""

from __future__ import annotations

import os
import platform
import sys
from time import perf_counter

#: Environment variables that pin BLAS/OpenMP pools; the program runs
#: with each set to 1.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def calibration_s(rounds: int = 5) -> float:
    """Median time of a fixed numpy-plus-Python kernel (about 10 ms)."""
    import numpy as np

    rng = np.random.default_rng(0)
    mat = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    state = rng.standard_normal(4096) + 0j
    times = []
    for _ in range(rounds):
        t0 = perf_counter()
        acc = mat
        for _ in range(20):
            acc = acc @ mat
            acc /= np.abs(acc).max()
        psi = state.reshape((2,) * 12)
        for q in range(12):
            psi = np.moveaxis(psi, q, 0).copy()
        total = 0
        for i in range(60000):
            total += i * i % 7
        times.append(perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def steal_s() -> float | None:
    """CPU time the hypervisor gave to others, summed over all CPUs so far."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_s(pid: int) -> float | None:
    """User plus system CPU time of process ``pid`` (all its threads)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_record() -> dict:
    """Static facts about the host and this process's environment."""
    import numpy as np

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "loadavg": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
