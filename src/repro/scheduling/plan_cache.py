"""Memoization of Algorithm 1 plans across a scheduling run.

``_two_q_schedule`` re-solves :func:`~repro.graphs.suppression.alpha_optimal_suppression`
for every candidate gate group it grows, and near-identical qubit sets
recur dozens of times per layer and across layers (the leftover pool of
one layer re-enters the next layer's ready set).  Algorithm 1 is a pure
function of ``(topology, Q, alpha, top_k)``, so its plans can be cached
without changing a single emitted schedule — the cache key uses
:attr:`~repro.device.topology.Topology.fingerprint`, which hashes the
coupling structure, so one cache instance may safely serve several
topology objects (and, shared at module level, a whole campaign).

The cache is a :class:`~repro.memo.MemoCache`: thread-safe, exactly-once
per key (what lets one instance back the concurrent ``repro serve``
compile daemon) and FIFO-bounded when ``maxsize`` is set.

``NullPlanCache`` recomputes every plan; the differential oracles run the
scheduler through it to pin cache-on == cache-off bit-identical.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.device.topology import Topology
from repro.graphs.suppression import (
    DEFAULT_ALPHA,
    DEFAULT_TOP_K,
    SuppressionPlan,
    alpha_optimal_suppression,
)
from repro.memo import MemoCache
from repro.telemetry import counter

#: Bound of the long-lived process-wide plan cache.  The largest single
#: compile measured, osprey/qv, needs 3040 plans.
PLAN_CACHE_SIZE = 4096


class SuppressionPlanCache(MemoCache):
    """Cache of alpha-optimal suppression plans, keyed by problem content.

    Keys are ``(topology fingerprint, frozenset(Q), alpha, top_k)``.  Plans
    are immutable (frozen dataclasses), so returning the cached instance is
    safe; the ``plan_cache.*`` counters feed ``sched-bench`` and ``repro
    stats``, the instance ``stats`` the ``repro serve`` stats endpoint.
    """

    def __init__(self, maxsize: int | None = None):
        super().__init__("plan_cache", maxsize)

    def plan(
        self,
        topology: Topology,
        gate_qubits: Iterable[int] = (),
        alpha: float = DEFAULT_ALPHA,
        top_k: int = DEFAULT_TOP_K,
    ) -> SuppressionPlan:
        """The plan for one Algorithm-1 problem, computed at most once."""
        qubits = frozenset(gate_qubits)
        return self.get(
            (topology.fingerprint, qubits, alpha, top_k),
            lambda: alpha_optimal_suppression(
                topology, qubits, alpha=alpha, top_k=top_k
            ),
        )


class NullPlanCache(SuppressionPlanCache):
    """A pass-through cache: every request recomputes (the uncached path)."""

    def plan(
        self,
        topology: Topology,
        gate_qubits: Iterable[int] = (),
        alpha: float = DEFAULT_ALPHA,
        top_k: int = DEFAULT_TOP_K,
    ) -> SuppressionPlan:
        with self._lock:
            self.misses += 1
        counter("plan_cache.miss")
        return alpha_optimal_suppression(
            topology, frozenset(gate_qubits), alpha=alpha, top_k=top_k
        )


#: Process-wide cache shared by campaign cells and every serve request;
#: safe because plans are pure functions of the key.
SHARED_PLAN_CACHE = SuppressionPlanCache(PLAN_CACHE_SIZE)
