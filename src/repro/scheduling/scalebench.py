"""Scheduler-scale benchmark engine behind ``repro sched-bench``.

Times the ZZXSched compile path (schedule construction only — pulse
optimization and simulation are out of scope) on real-device topologies:
heavy-hex lattices at Falcon/Eagle/Osprey scale and large grids, driving
device-native QAOA / QV workloads from :mod:`repro.verify.generators`.

Each row reports wall-clock with the :class:`SuppressionPlanCache` warm
path and (optionally) the uncached path, the speedup between them, cache
hit statistics, and schedule structure (layers, identities) — the numbers
the paper treats as first-class in its compile-time evaluation (Fig. 24
and 27).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.circuits.compile import compile_circuit
from repro.device.topology import Topology
from repro.experiments.result import ExperimentResult
from repro.scheduling.layer import Schedule
from repro.scheduling.plan_cache import NullPlanCache, SuppressionPlanCache
from repro.scheduling.requirement import SuppressionRequirement
from repro.scheduling.zzxsched import ZZXConfig, zzx_schedule

DEFAULT_DEVICES = ("falcon", "eagle")
DEFAULT_CIRCUITS = ("qaoa", "qv")


@dataclass
class BenchPoint:
    """One timed scheduling point.

    ``cold_s`` is the first compile on a fresh plan cache; ``warm_s`` the
    re-compile through the warmed cache (the campaign steady state, where
    the process-wide cache persists across cells); ``uncached_s`` the
    :class:`NullPlanCache` path that re-solves Algorithm 1 for every
    request.  ``speedup`` is ``uncached_s / warm_s`` — the plan cache's
    contribution on top of the vectorized compile path.
    """

    device: str
    circuit: str
    num_qubits: int
    num_gates: int
    schedule: Schedule
    cold_s: float
    warm_s: float
    uncached_s: float | None
    cache_stats: dict[str, int]

    def row(self) -> dict:
        row = {
            "device": self.device,
            "circuit": self.circuit,
            "qubits": self.num_qubits,
            "gates": self.num_gates,
            "layers": self.schedule.num_layers,
            "cold_s": round(self.cold_s, 3),
            "warm_s": round(self.warm_s, 3),
        }
        if self.uncached_s is not None:
            row["uncached_s"] = round(self.uncached_s, 3)
            row["speedup"] = (
                round(self.uncached_s / self.warm_s, 1)
                if self.warm_s > 0
                else float("inf")
            )
        hits, misses = self.cache_stats["hits"], self.cache_stats["misses"]
        total = hits + misses
        row["hit_rate"] = f"{hits}/{total}" if total else "0/0"
        return row


def bench_circuit(topology: Topology, kind: str, seed: int = 0):
    """The compiled device-native benchmark circuit for one topology."""
    from repro.verify.generators import SCALE_CIRCUITS

    if kind not in SCALE_CIRCUITS:
        raise ValueError(
            f"unknown circuit kind {kind!r}; known: "
            f"{', '.join(sorted(SCALE_CIRCUITS))}"
        )
    logical = SCALE_CIRCUITS[kind](topology, seed=seed)
    # Trivial layout: device-native circuits already act on coupled pairs,
    # so routing is a no-op and the coupling structure is preserved.
    return compile_circuit(logical, topology, layout="trivial").circuit


def scale_context(name: str) -> tuple[Topology, SuppressionRequirement]:
    """(topology, requirement) for a scale-device name, topology warmed.

    The one resolver behind every scale compile (``sched-bench``, serve
    compile requests, the load harness's one-shot baseline, the goldens).
    The topology's one-time structures (distance matrix, planar dual) are
    built here, so no timed compile pays for them.
    """
    from repro.verify.generators import scale_topology

    topology = scale_topology(name)
    topology.distance_matrix
    topology.dual_simple
    return topology, SuppressionRequirement.from_topology(topology)


def run_point(
    name: str,
    kind: str,
    *,
    seed: int = 0,
    compare_uncached: bool = True,
    check: bool = False,
    config: ZZXConfig | None = None,
) -> BenchPoint:
    """Schedule one (device, circuit) point, cached and optionally uncached."""
    topology, requirement = scale_context(name)
    circuit = bench_circuit(topology, kind, seed=seed)

    cache = SuppressionPlanCache()
    start = time.perf_counter()
    schedule = zzx_schedule(circuit, topology, requirement, config, cache)
    cold_s = time.perf_counter() - start

    # Steady-state measurement: best of three warmed re-compiles (warm
    # runs are fast enough that allocator/GC noise dominates a single one).
    warm_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        rewarmed = zzx_schedule(circuit, topology, requirement, config, cache)
        warm_s = min(warm_s, time.perf_counter() - start)
        if rewarmed.num_layers != schedule.num_layers:
            raise AssertionError(
                f"warm cache changed the schedule on {name}/{kind}: "
                f"{schedule.num_layers} vs {rewarmed.num_layers} layers"
            )

    uncached_s = None
    if compare_uncached:
        start = time.perf_counter()
        uncached = zzx_schedule(
            circuit, topology, requirement, config, NullPlanCache()
        )
        uncached_s = time.perf_counter() - start
        if uncached.num_layers != schedule.num_layers:
            raise AssertionError(
                f"cache changed the schedule on {name}/{kind}: "
                f"{schedule.num_layers} vs {uncached.num_layers} layers"
            )

    if check:
        from repro.verify.oracles import check_legality, check_suppression

        problems = check_legality(schedule, circuit, topology)
        problems += check_suppression(schedule, topology, requirement)
        if problems:
            raise AssertionError(
                f"oracles failed on {name}/{kind}: "
                + "; ".join(str(p) for p in problems)
            )

    return BenchPoint(
        device=name,
        circuit=kind,
        num_qubits=topology.num_qubits,
        num_gates=len(circuit.gates),
        schedule=schedule,
        cold_s=cold_s,
        warm_s=warm_s,
        uncached_s=uncached_s,
        cache_stats=cache.stats,
    )


def run_sched_bench(
    devices=DEFAULT_DEVICES,
    circuits=DEFAULT_CIRCUITS,
    *,
    seed: int = 0,
    compare_uncached: bool = True,
    check: bool = False,
) -> ExperimentResult:
    """Sweep the scheduler over (device, circuit) points; render a table."""
    points = [
        run_point(
            name,
            kind,
            seed=seed,
            compare_uncached=compare_uncached,
            check=check,
        )
        for name in devices
        for kind in circuits
    ]
    notes = (
        "schedule construction wall-clock; cold/warm = fresh/warmed "
        "SuppressionPlanCache, uncached = NullPlanCache"
    )
    if check:
        notes += "; legality + suppression oracles passed"
    return ExperimentResult(
        "sched-bench",
        "ZZXSched compile time at real-device scale",
        rows=[p.row() for p in points],
        notes=notes,
    )
