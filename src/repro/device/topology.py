"""Device topology: a planar graph of qubits and couplings.

A :class:`Topology` wraps an undirected ``networkx`` graph whose nodes are
qubit indices ``0..n-1`` and whose edges are couplings.  It lazily computes
the structures the scheduling algorithms need: all-pairs distances, the
planar dual multigraph (Section 3.2), bipartiteness, and degree statistics.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from collections.abc import Iterable

import networkx as nx
import numpy as np

from repro.telemetry import span


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


def _neighbor_table(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """``(n, max(max_degree, 1))`` neighbour indices of each of ``n`` nodes.

    ``us``/``vs`` are the endpoints of the undirected edges.  Rows shorter
    than the widest are padded with the node's own index, so padding (and
    an isolated node's whole row) never adds a neighbour.
    """
    ends = np.concatenate((us, vs))
    others = np.concatenate((vs, us))
    order = np.argsort(ends, kind="stable")
    ends, others = ends[order], others[order]
    degree = np.bincount(ends, minlength=n)
    starts = np.cumsum(degree) - degree
    width = max(int(degree.max(initial=0)), 1)
    table = np.repeat(np.arange(n, dtype=np.intp)[:, None], width, axis=1)
    table[ends, np.arange(len(ends)) - starts[ends]] = others
    return table


class Topology:
    """Qubit-coupling graph with planar-dual machinery."""

    def __init__(self, graph: nx.Graph, name: str = "device"):
        if graph.number_of_nodes() == 0:
            raise ValueError("topology must have at least one qubit")
        relabeled = set(graph.nodes) != set(range(graph.number_of_nodes()))
        if relabeled:
            raise ValueError("qubits must be labelled 0..n-1")
        self.graph = nx.Graph(graph)
        self.name = name

    @property
    def num_qubits(self) -> int:
        return self.graph.number_of_nodes()

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(edge_key(u, v) for u, v in self.graph.edges))

    @property
    def num_couplings(self) -> int:
        return len(self.edges)

    def neighbors(self, qubit: int) -> list[int]:
        return sorted(self.graph.neighbors(qubit))

    def has_edge(self, u: int, v: int) -> bool:
        return self.graph.has_edge(u, v)

    @cached_property
    def max_degree(self) -> int:
        return max(dict(self.graph.degree).values(), default=0)

    @cached_property
    def is_bipartite(self) -> bool:
        return nx.is_bipartite(self.graph)

    @cached_property
    def is_planar(self) -> bool:
        return nx.check_planarity(self.graph)[0]

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path lengths as a dense float matrix.

        Computed with a numpy BFS from every source at once: each level
        moves every frontier one coupling further by gathering rows through
        the padded :func:`_neighbor_table`, so a level is
        ``O(n^2 * max_degree)`` vectorized work and there are as many
        levels as the diameter.  That is orders of magnitude faster than
        the ``networkx`` all-pairs dict at real-device sizes (127-433
        qubits), and it keeps ``scipy.sparse`` out of every process that
        only schedules.  Unreachable pairs hold ``inf``.
        """
        with span("sched.distance_matrix"):
            n = self.num_qubits
            table = _neighbor_table(n, *self.edge_arrays)
            matrix = np.full((n, n), np.inf)
            np.fill_diagonal(matrix, 0.0)
            # Column s is source s's search and row j is qubit j; gathering
            # whole rows keeps every copy contiguous, and the result is
            # symmetric, so the two may trade roles.
            reached = np.eye(n, dtype=bool)
            frontier = reached.copy()
            level = 0
            while True:
                level += 1
                # step[j, s]: some neighbour of j is on source s's frontier.
                step = frontier[table[:, 0]]
                for column in table.T[1:]:
                    step |= frontier[column]
                step &= ~reached
                if not step.any():
                    return matrix
                matrix[step] = level
                reached |= step
                frontier = step

    @cached_property
    def is_connected(self) -> bool:
        return not np.isinf(self.distance_matrix).any()

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two parallel index arrays (for vector gathers)."""
        us = np.fromiter((u for u, _ in self.edges), dtype=np.intp, count=len(self.edges))
        vs = np.fromiter((v for _, v in self.edges), dtype=np.intp, count=len(self.edges))
        return us, vs

    @cached_property
    def edge_position(self) -> dict[tuple[int, int], int]:
        """Canonical edge key -> its index in :attr:`edges`."""
        return {edge: i for i, edge in enumerate(self.edges)}

    def distance(self, u: int, v: int) -> int:
        """Shortest-path length between qubits (in couplings)."""
        n = self.num_qubits
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"qubits {u}, {v} out of range 0..{n - 1}")
        d = self.distance_matrix[u, v]
        if np.isinf(d):
            raise ValueError(f"no path between qubits {u} and {v}")
        return int(d)

    def shortest_path(self, u: int, v: int) -> list[int]:
        return nx.shortest_path(self.graph, u, v)

    @cached_property
    def dual(self) -> nx.MultiGraph:
        """Planar dual multigraph.

        Nodes are face ids (the outer face included); each primal edge
        ``(u, v)`` becomes a dual edge keyed by ``edge_key(u, v)`` between
        the two faces it borders (a self-loop for bridges).
        """
        return build_planar_dual(self.graph)

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the coupling graph (structure only, not name).

        Two ``Topology`` instances with the same qubit count and edge set
        share a fingerprint, so caches keyed by it (e.g. the scheduler's
        :class:`~repro.scheduling.plan_cache.SuppressionPlanCache`) can be
        shared across instances and processes.
        """
        blob = f"{self.num_qubits}:{self.edges}".encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @cached_property
    def dual_edge_of(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Primal edge key -> the dual vertex pair (face pair) it crosses."""
        return {key: (u, v) for u, v, key in self.dual.edges(keys=True)}

    @cached_property
    def dual_simple(self) -> nx.Graph:
        """Simple projection of the dual (see ``graphs.pairing``), cached.

        Treat as immutable: Algorithm 1 copies it before patching out the
        duals of gate-internal edges.
        """
        from repro.graphs.pairing import simple_projection

        return simple_projection(self.dual)

    @cached_property
    def dual_odd_vertices(self) -> tuple[int, ...]:
        """Odd-degree dual vertices of the unmodified dual, sorted."""
        from repro.graphs.pairing import odd_degree_vertices

        return tuple(odd_degree_vertices(self.dual))

    def subtopology(self, qubits: Iterable[int]) -> "Topology":
        """Induced subgraph, relabelled to 0..k-1 preserving order."""
        ordered = sorted(set(qubits))
        mapping = {q: i for i, q in enumerate(ordered)}
        sub = nx.relabel_nodes(self.graph.subgraph(ordered), mapping, copy=True)
        sub.add_nodes_from(range(len(ordered)))
        return Topology(sub, name=f"{self.name}[sub{len(ordered)}]")

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, qubits={self.num_qubits}, "
            f"couplings={self.num_couplings})"
        )


def build_planar_dual(graph: nx.Graph) -> nx.MultiGraph:
    """Construct the planar dual of ``graph`` as a multigraph.

    Each dual edge is keyed by the primal edge it crosses, so algorithms can
    map dual structures (odd-vertex pairings) back to coupling sets.
    """
    is_planar, embedding = nx.check_planarity(graph)
    if not is_planar:
        raise ValueError("topology is not planar; the dual is undefined")
    visited: set[tuple[int, int]] = set()
    face_of: dict[tuple[int, int], int] = {}
    face_count = 0
    for u, v in embedding.edges:
        if (u, v) in visited:
            continue
        nodes = embedding.traverse_face(u, v, mark_half_edges=visited)
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            face_of[(a, b)] = face_count
        face_count += 1
    dual = nx.MultiGraph()
    dual.add_nodes_from(range(max(face_count, 1)))
    for a, b in graph.edges:
        dual.add_edge(face_of[(a, b)], face_of[(b, a)], key=edge_key(a, b))
    return dual
