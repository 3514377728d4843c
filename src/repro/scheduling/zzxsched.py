"""ZZXSched: the paper's ZZ-aware scheduler (Algorithm 2).

Iterates over schedulable gate sets, making crosstalk suppression the first
priority and parallelism the second:

- *Case 1* (only single-qubit gates): run Algorithm 1 unconstrained — on
  bipartite topologies that yields complete suppression — and schedule the
  partition holding more gates, filling the rest of it with identities.
- *Case 2* (two-qubit gates present): try to schedule all two-qubit gates
  at once; if the resulting cut violates the suppression requirement ``R``,
  split the two *closest* gates into separate groups and grow the groups
  farthest-gate-first while ``R`` stays satisfied (Theorem 6.1 guarantees
  the K closest gates land in K different layers).

The identities that pad each layer (Procedure Schedule, lines 10-13) come
from :func:`~repro.circuits.gates.identity_gate`'s interning table: every
layer of every schedule shares one frozen ``id`` gate per qubit instead of
allocating its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.dag import SchedulingFrontier
from repro.circuits.gates import Gate, identity_gate
from repro.device.topology import Topology
from repro.graphs.suppression import (
    DEFAULT_ALPHA,
    DEFAULT_TOP_K,
    SuppressionPlan,
)
from repro.scheduling.distance import gate_distance_matrix
from repro.scheduling.layer import Layer, Schedule
from repro.scheduling.plan_cache import SuppressionPlanCache
from repro.scheduling.requirement import SuppressionRequirement
from repro.telemetry import counter, span

IDENTITY_POLICIES = ("not_pending", "all_free")


@dataclass(frozen=True)
class ZZXConfig:
    """Tunables of Algorithm 2 (paper defaults)."""

    alpha: float = DEFAULT_ALPHA
    top_k: int = DEFAULT_TOP_K
    #: Which pulse-free qubits of S receive identity gates.  "not_pending"
    #: is the paper's literal Algorithm 2 (qubits of *any* schedulable gate
    #: are skipped); "all_free" pulses every gate-free qubit of S.
    identity_policy: str = "not_pending"

    def __post_init__(self):
        if self.identity_policy not in IDENTITY_POLICIES:
            raise ValueError(
                f"identity_policy must be one of {IDENTITY_POLICIES}"
            )


def zzx_schedule(
    circuit: Circuit,
    topology: Topology,
    requirement: SuppressionRequirement | None = None,
    config: ZZXConfig | None = None,
    plan_cache: SuppressionPlanCache | None = None,
) -> Schedule:
    """Schedule ``circuit`` on ``topology`` with ZZ-aware layering.

    ``plan_cache`` memoizes Algorithm-1 solutions across the run (and, when
    a shared cache is passed, across runs); plans are pure functions of
    ``(topology, Q, alpha, top_k)``, so caching never changes the emitted
    schedule.  Pass a :class:`~repro.scheduling.plan_cache.NullPlanCache`
    to force the uncached path.
    """
    if circuit.num_qubits != topology.num_qubits:
        raise ValueError(
            "circuit must already be compiled to the device "
            f"({circuit.num_qubits} vs {topology.num_qubits} qubits)"
        )
    requirement = requirement or SuppressionRequirement.from_topology(topology)
    config = config or ZZXConfig()
    plan_cache = plan_cache if plan_cache is not None else SuppressionPlanCache()
    with span("sched.zzx"):
        frontier = SchedulingFrontier(circuit)
        schedule = Schedule(num_qubits=circuit.num_qubits, policy="zzxsched")

        while not frontier.exhausted:
            virtual = frontier.pop_virtual()
            ready = frontier.schedulable()
            if not ready:
                schedule.trailing_virtual.extend(virtual)
                break
            ready_gates = {i: frontier.gates[i] for i in ready}
            two_qubit = {
                i: g for i, g in ready_gates.items() if g.num_qubits == 2
            }

            if not two_qubit:
                plan = plan_cache.plan(
                    topology, (), alpha=config.alpha, top_k=config.top_k
                )
                pulsed = _majority_side(plan, ready_gates.values())
            else:
                plan, pulsed = _two_q_schedule(
                    topology,
                    list(two_qubit.values()),
                    requirement,
                    config,
                    plan_cache,
                )

            with span("layer_assembly"):
                chosen = [
                    i for i, g in ready_gates.items() if set(g.qubits) <= pulsed
                ]
                if not chosen:
                    # Defensive fallback (cannot occur with the fallback
                    # plans of Algorithm 1, which always cover the
                    # requested qubits).
                    chosen = [min(ready_gates)]
                    pulsed = frozenset(
                        q for q in range(topology.num_qubits)
                    )
                gates = frontier.pop(chosen)
                identity_qubits = _identity_qubits(
                    pulsed,
                    gates,
                    list(ready_gates.values()),
                    config.identity_policy,
                )
                layer = Layer(
                    gates=gates,
                    identities=[
                        identity_gate(q) for q in sorted(identity_qubits)
                    ],
                    virtual=virtual,
                    plan=plan,
                )
                layer.validate()
                schedule.layers.append(layer)
            counter("sched.layers")
        schedule.trailing_virtual.extend(frontier.pop_virtual())
    return schedule


def _majority_side(plan: SuppressionPlan, gates) -> frozenset[int]:
    """Case 1: the partition containing more schedulable gates."""
    gate_qubits = [g.qubits[0] for g in gates]
    count0 = sum(1 for q in gate_qubits if plan.coloring[q] == 0)
    count1 = len(gate_qubits) - count0
    return plan.partition(0) if count0 >= count1 else plan.partition(1)


def _identity_qubits(
    pulsed: frozenset[int],
    scheduled: list[Gate],
    all_ready: list[Gate],
    policy: str,
) -> frozenset[int]:
    """Procedure Schedule, lines 10-13: supplement S with identity gates."""
    if policy == "not_pending":
        occupied = {q for g in all_ready for q in g.qubits}
    else:  # "all_free"
        occupied = {q for g in scheduled for q in g.qubits}
    return frozenset(pulsed - occupied)


def _two_q_schedule(
    topology: Topology,
    gates2: list[Gate],
    requirement: SuppressionRequirement,
    config: ZZXConfig,
    plan_cache: SuppressionPlanCache,
) -> tuple[SuppressionPlan, frozenset[int]]:
    """Procedure TwoQSchedule (Algorithm 2, lines 15-28).

    Groups are tracked as *indices* into ``gates2`` (never by gate
    equality, so value-equal duplicate gates cannot shadow one another) and
    all Definition-6.1/6.2 searches run on one precomputed gate-distance
    matrix with incrementally maintained per-gate group distances.
    """

    def plan_for(indices: list[int]) -> SuppressionPlan:
        qubits = {q for k in indices for q in gates2[k].qubits}
        return plan_cache.plan(
            topology, qubits, alpha=config.alpha, top_k=config.top_k
        )

    def side_for(plan: SuppressionPlan, indices: list[int]) -> frozenset[int]:
        qubits = {q for k in indices for q in gates2[k].qubits}
        if plan.is_monochromatic(qubits):
            return plan.side_of(qubits)
        # Fallback-plan case: all qubits share one partition anyway.
        return plan.partition(plan.coloring[next(iter(qubits))])

    everything = list(range(len(gates2)))
    plan = plan_for(everything)
    qubits_all = {q for g in gates2 for q in g.qubits}
    if plan.is_monochromatic(qubits_all) and requirement.satisfied_by(plan):
        return plan, side_for(plan, everything)
    if len(gates2) == 1:
        # A single gate cannot be split further; schedule it regardless.
        return plan, side_for(plan, everything)

    # Heuristic grouping: separate the two closest gates.  np.argmin over
    # the flattened upper triangle returns the first minimum in row-major
    # order — the same (distance, i, j) lexicographic tie-break as the
    # historical min() over pair tuples.
    distances = gate_distance_matrix(topology, gates2)
    iu, ju = np.triu_indices(len(gates2), k=1)
    pos = int(np.argmin(distances[iu, ju]))
    ia, ib = int(iu[pos]), int(ju[pos])
    group_a = [ia]
    group_b = [ib]
    pool = [k for k in everything if k not in (ia, ib)]
    # Definition 6.2 distances of every gate to each group, updated as the
    # groups grow (min over members == min against the newest member).
    dist_a = distances[:, ia].copy()
    dist_b = distances[:, ib].copy()

    # ... then grow groups farthest-gate-first while R stays satisfied.
    while pool:
        # First maximum in (gate, then group-a-before-group-b) order —
        # identical to the historical max() over the generator of
        # (distance, gate, group) tuples keyed on distance.
        best_d, best_k, best_in_a = -1, -1, True
        for k in pool:
            if dist_a[k] > best_d:
                best_d, best_k, best_in_a = dist_a[k], k, True
            if dist_b[k] > best_d:
                best_d, best_k, best_in_a = dist_b[k], k, False
        group = group_a if best_in_a else group_b
        candidate = group + [best_k]
        plan_candidate = plan_for(candidate)
        qubits = {q for k in candidate for q in gates2[k].qubits}
        if plan_candidate.is_monochromatic(qubits) and requirement.satisfied_by(
            plan_candidate
        ):
            group.append(best_k)
            pool.remove(best_k)
            if best_in_a:
                dist_a = np.minimum(dist_a, distances[:, best_k])
            else:
                dist_b = np.minimum(dist_b, distances[:, best_k])
        else:
            break

    chosen = group_a if len(group_a) >= len(group_b) else group_b
    plan = plan_for(chosen)
    return plan, side_for(plan, chosen)
