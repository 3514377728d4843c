"""Algorithm 1: alpha-optimal suppression via odd-vertex pairings.

Given the device topology, a set ``Q`` of qubits that must all receive
pulses (the gate qubits of a layer, possibly empty), and the trade-off
coefficient ``alpha``, find a cut ``(S, T)`` of the topology minimizing
``alpha * NQ + NC`` subject to ``Q`` lying inside one partition.

Pipeline (Sections 5.1-5.2):

1. *Delete Edges*: remove the duals of ``E_Q`` (edges internal to ``Q``).
2. *Vertex Matching*: max-weight matching of odd-degree dual vertices.
3. *Path Relaxing*: greedily swap matched pairs' shortest paths for their
   top-k alternatives while the objective improves.
4. *Add Edges / Cut Inducing / Check*: add ``E_Q`` back to the pairing,
   contract its primal edges, 2-color, and verify ``Q`` is monochromatic.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable
from functools import cached_property

import numpy as np

from repro.device.topology import Topology, edge_key
from repro.graphs.cuts import CutMetrics, cut_metrics, induce_cut
from repro.graphs.pairing import (
    match_odd_vertices_on,
    odd_vertices_after_removal,
    remove_projected_edges,
    top_k_paths,
)
from repro.telemetry import counter, span

DEFAULT_ALPHA = 0.5
DEFAULT_TOP_K = 3


@dataclass(frozen=True)
class SuppressionPlan:
    """A cut of the topology with its suppression metrics.

    ``coloring`` maps each qubit to 0/1; the scheduler decides which color
    becomes the pulsed partition ``S`` (for constrained problems it must be
    the color of the gate qubits).
    """

    coloring: dict[int, int]
    metrics: CutMetrics
    pairing_edges: frozenset[tuple[int, int]]

    @property
    def nq(self) -> int:
        return self.metrics.nq

    @property
    def nc(self) -> int:
        return self.metrics.nc

    def objective(self, alpha: float) -> float:
        return self.metrics.objective(alpha)

    @cached_property
    def _sides(self) -> tuple[frozenset[int], frozenset[int]]:
        # Built once per plan: cached plans answer every layer's lookup.
        return tuple(
            frozenset(q for q, c in self.coloring.items() if c == color)
            for color in (0, 1)
        )

    def partition(self, color: int) -> frozenset[int]:
        return self._sides[color]

    def side_of(self, qubits: Iterable[int]) -> frozenset[int]:
        """The partition containing ``qubits`` (which must be monochromatic)."""
        colors = {self.coloring[q] for q in qubits}
        if len(colors) != 1:
            raise ValueError(f"qubits {sorted(qubits)} span both partitions")
        return self.partition(colors.pop())

    def is_monochromatic(self, qubits: Iterable[int]) -> bool:
        colors = {self.coloring[q] for q in qubits}
        return len(colors) <= 1


def _trivial_plan(topology: Topology) -> SuppressionPlan:
    """Everything in one partition: no suppression (the safe fallback).

    Pure per topology, so the plan is built once and memoized on the
    instance (it is requested for every unsatisfiable candidate group).
    """
    plan = getattr(topology, "_trivial_suppression_plan", None)
    if plan is None:
        coloring = {q: 0 for q in range(topology.num_qubits)}
        plan = SuppressionPlan(
            coloring=coloring,
            metrics=cut_metrics(topology.graph, coloring),
            pairing_edges=frozenset(topology.edges),
        )
        topology._trivial_suppression_plan = plan
    return plan


def _contracted_components(contract: Iterable[tuple[int, int]]):
    """Union-find over the contract edges.

    Returns ``(parent, find, nq)``: the touched-node parent map, the
    path-compressing find function, and the largest super-vertex size
    (1 when nothing merges — untouched qubits are singletons).
    """
    parent: dict[int, int] = {}
    size: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    nq = 1
    for u, v in contract:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            merged = size.get(ru, 1) + size.get(rv, 1)
            size[ru] = merged
            if merged > nq:
                nq = merged
    return parent, find, nq


def _contract_metrics(
    topology: Topology, contract: frozenset[tuple[int, int]]
) -> CutMetrics:
    """Metrics of a *valid* contracted cut, straight from the contract set.

    When :func:`~repro.graphs.cuts.induce_cut` succeeds, every contract
    edge is same-colored and every other edge crosses, so the remaining-set
    is exactly ``contract`` (Theorem 3.1): ``NC = |contract|`` and ``NQ``
    is the largest contracted super-vertex — no graph reconstruction.
    Equals :func:`~repro.graphs.cuts.cut_metrics` on the induced coloring.
    """
    _, _, nq = _contracted_components(contract)
    return CutMetrics(nq=nq, nc=len(contract), remaining_edges=contract)


def _evaluate(
    topology: Topology,
    path_edges: Iterable[tuple[int, int]],
    gate_edges: frozenset[tuple[int, int]],
    gate_qubits: frozenset[int],
) -> SuppressionPlan | None:
    """Add-Edges + Cut-Inducing + Check for one candidate pairing."""
    contract = frozenset(path_edges) | gate_edges
    coloring = induce_cut(topology.graph, contract)
    if coloring is None:
        return None
    if gate_qubits and not _monochromatic(coloring, gate_qubits):
        return None
    return SuppressionPlan(
        coloring=coloring,
        metrics=_contract_metrics(topology, contract),
        pairing_edges=contract,
    )


def _monochromatic(coloring: dict[int, int], qubits: frozenset[int]) -> bool:
    colors = {coloring[q] for q in qubits}
    return len(colors) <= 1


def _search_objective(
    topology: Topology,
    contract: frozenset[tuple[int, int]],
    gate_qubits: frozenset[int],
    alpha: float,
) -> float | None:
    """Objective of one candidate pairing, or ``None`` when invalid.

    The Path-Relaxing hill climb only *compares* candidates, and every fact
    it compares on is invariant under the coloring orientation, so the full
    :func:`_evaluate` (whose per-component color choice must be preserved
    bit-for-bit for the winner) is deferred to the end of the search.  For
    a valid pairing the remaining-set equals ``contract`` exactly (Theorem
    3.1), hence ``NC = |contract|`` and ``NQ`` is the largest contracted
    super-vertex — no graph reconstruction, no networkx.
    """
    n = topology.num_qubits
    parent, find, nq = _contracted_components(contract)

    # Super-vertex roots per edge endpoint, as one vector gather: only the
    # contract-touched qubits differ from the identity map.
    us, vs = topology.edge_arrays
    if parent:
        roots = np.arange(n, dtype=np.intp)
        touched = list(parent)
        roots[touched] = [find(x) for x in touched]
        ru_all, rv_all = roots[us], roots[vs]
    else:
        ru_all, rv_all = us, vs
    keep = np.ones(len(us), dtype=bool)
    position = topology.edge_position
    keep[[position[edge] for edge in contract]] = False
    ru = ru_all[keep]
    rv = rv_all[keep]
    if ru.size and bool((ru == rv).any()):
        return None  # an uncontracted edge inside one super-vertex

    adjacency: dict[int, list[int]] = {}
    for a, b in zip(ru.tolist(), rv.tolist()):
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)

    color: dict[int, int] = {}
    for root in adjacency:
        if root in color:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            node = stack.pop()
            next_color = 1 - color[node]
            for nbr in adjacency[node]:
                seen = color.get(nbr)
                if seen is None:
                    color[nbr] = next_color
                    stack.append(nbr)
                elif seen != next_color:
                    return None  # odd quotient cycle: not bipartite

    if gate_qubits:
        gate_colors = {color.get(find(q), 0) for q in gate_qubits}
        if len(gate_colors) > 1:
            return None
    return alpha * nq + len(contract)


def alpha_optimal_suppression(
    topology: Topology,
    gate_qubits: Iterable[int] = (),
    alpha: float = DEFAULT_ALPHA,
    top_k: int = DEFAULT_TOP_K,
) -> SuppressionPlan:
    """Algorithm 1 of the paper; always returns a plan (fallback: no cut).

    For bipartite topologies and empty ``gate_qubits`` this finds complete
    suppression (``NC = 0``).
    """
    with span("sched.algorithm1"):
        return _algorithm1(topology, gate_qubits, alpha, top_k)


def _algorithm1(
    topology: Topology,
    gate_qubits: Iterable[int],
    alpha: float,
    top_k: int,
) -> SuppressionPlan:
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    gate_qubits = frozenset(gate_qubits)
    unknown = [q for q in gate_qubits if q >= topology.num_qubits or q < 0]
    if unknown:
        raise ValueError(f"gate qubits out of range: {unknown}")
    gate_edges = frozenset(
        edge_key(u, v)
        for u, v in topology.edges
        if u in gate_qubits and v in gate_qubits
    )

    # Step "Delete Edges": remove duals of E_Q.  The dual, its simple
    # projection, and its odd-vertex set are cached on the topology; only
    # the deltas are applied per call (no multigraph copy, no projection
    # rebuild — the win that makes per-candidate re-planning affordable on
    # 127-433 qubit devices).
    dual_edge_of = topology.dual_edge_of
    if gate_edges:
        deleted = [(key, dual_edge_of[key]) for key in sorted(gate_edges)]
        simple = topology.dual_simple.copy()
        remove_projected_edges(simple, deleted)
        endpoints = []
        for _, (u, v) in deleted:
            if u != v:  # self-loop deletion keeps parity even
                endpoints.extend((u, v))
        odd = odd_vertices_after_removal(topology.dual_odd_vertices, endpoints)
    else:
        simple = topology.dual_simple
        odd = list(topology.dual_odd_vertices)

    # Step "Vertex Matching".
    pairs = match_odd_vertices_on(simple, odd)
    path_lists = [top_k_paths(simple, u, v, top_k) for u, v in pairs]
    path_lists = [paths for paths in path_lists if paths]

    def union_paths(indices: list[int]) -> frozenset[tuple[int, int]]:
        edges: set[tuple[int, int]] = set()
        for paths, idx in zip(path_lists, indices):
            edges.update(paths[idx])
        return frozenset(edges)

    # The search compares candidates only on orientation-invariant facts
    # (validity, NQ, NC, gate monochromaticity), so it runs through the
    # union-find fast path; the exact :func:`_evaluate` — whose coloring
    # orientation must be reproduced bit-for-bit — runs once, on the
    # winner.  Disconnected topologies keep the exact evaluator throughout
    # (their per-component color choices can affect the verdicts).
    if topology.is_connected:
        def search(indices: list[int]) -> float | None:
            counter("sched.two_colorings")
            return _search_objective(
                topology, union_paths(indices) | gate_edges, gate_qubits, alpha
            )
    else:
        def search(indices: list[int]) -> float | None:
            counter("sched.two_colorings")
            plan = _evaluate(
                topology, union_paths(indices), gate_edges, gate_qubits
            )
            return None if plan is None else plan.objective(alpha)

    indices = [0] * len(path_lists)
    best_indices = list(indices)
    best_objective = search(indices)
    if best_objective is None:
        best_indices, best_objective = None, float("inf")

    # Step "Path Relaxing": greedy hill-climb over per-pair path indices.
    improved = True
    while improved:
        counter("sched.path_relax_iterations")
        improved = False
        best_candidate: tuple[float, int] | None = None
        for i, paths in enumerate(path_lists):
            if indices[i] + 1 >= len(paths):
                continue
            trial = list(indices)
            trial[i] += 1
            objective = search(trial)
            if objective is None:
                continue
            if best_candidate is None or objective < best_candidate[0]:
                best_candidate = (objective, i)
        if best_candidate is not None and best_candidate[0] < best_objective:
            best_objective, which = best_candidate
            indices[which] += 1
            best_indices = list(indices)
            improved = True

    if best_indices is None:
        # Try relaxing even without improvement pressure: scan all single
        # advances until some candidate becomes valid.
        for i, paths in enumerate(path_lists):
            for idx in range(1, len(paths)):
                trial = list(indices)
                trial[i] = idx
                if search(trial) is not None:
                    return _evaluate(
                        topology, union_paths(trial), gate_edges, gate_qubits
                    )
        return _trivial_plan(topology)
    best = _evaluate(
        topology, union_paths(best_indices), gate_edges, gate_qubits
    )
    assert best is not None  # fast and exact validity verdicts coincide
    return best
