"""Scheduler-scale subsystem: heavy-hex devices, plan cache, sched-bench.

Tier-1 covers the generators, the plan-cache contract, the distance
matrix, and the CLI; the 127-qubit scale smoke runs (with a wall-clock
budget and full legality/suppression oracle checks) are tier2.
"""

from __future__ import annotations

import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.campaigns.spec import DeviceSpec
from repro.circuits.circuit import Circuit
from repro.cli import main as cli_main
from repro.device import (
    Topology,
    eagle,
    grid,
    heavy_hex,
    ibmq_vigo,
    line,
    osprey,
    ring,
    star,
)
from repro.memo import MemoCache
from repro.scheduling.distance import gate_distance, gate_distance_matrix
from repro.scheduling.plan_cache import (
    PLAN_CACHE_SIZE,
    SHARED_PLAN_CACHE,
    NullPlanCache,
    SuppressionPlanCache,
)
from repro.scheduling.requirement import SuppressionRequirement
from repro.scheduling.scalebench import bench_circuit, run_point, scale_context
from repro.scheduling.zzxsched import zzx_schedule
from repro.verify.generators import device_qaoa, device_qv, scale_topology
from repro.verify.oracles import (
    check_legality,
    check_plan_cache_equivalence,
    check_suppression,
)


class TestHeavyHex:
    @pytest.mark.parametrize(
        "distance,expected",
        [(3, 23), (5, 65), (7, 127), (13, 433)],
    )
    def test_qubit_counts(self, distance, expected):
        topology = heavy_hex(distance)
        assert topology.num_qubits == expected
        assert DeviceSpec(rows=distance, cols=0, family="heavy_hex").num_qubits == expected

    def test_structure(self):
        topology = heavy_hex(5)
        assert topology.is_bipartite
        assert topology.is_planar
        assert topology.is_connected
        assert topology.max_degree == 3

    def test_eagle_osprey_presets(self):
        assert eagle().num_qubits == 127
        assert eagle().name == "eagle-127"
        assert osprey().num_qubits == 433
        assert osprey().name == "osprey-433"

    @pytest.mark.parametrize("bad", [1, 2, 4, 0, -3])
    def test_invalid_distance_rejected(self, bad):
        with pytest.raises(ValueError):
            heavy_hex(bad)

    def test_scale_topology_resolver(self):
        assert scale_topology("eagle").num_qubits == 127
        assert scale_topology("heavyhex:5").num_qubits == 65
        assert scale_topology("grid:4x5").num_qubits == 20
        for bad in ("nope", "heavyhex:x", "grid:4", "grid:4xB"):
            with pytest.raises(ValueError):
                scale_topology(bad)

    def test_scale_context_warms_the_topology(self):
        topology, requirement = scale_context("falcon")
        assert topology.num_qubits == 23
        assert requirement == SuppressionRequirement.from_topology(topology)
        # The one-time structures are built before any timed compile.
        assert "distance_matrix" in vars(topology)
        assert "dual_simple" in vars(topology)
        with pytest.raises(ValueError):
            scale_context("nope")


class TestScaleCircuits:
    def test_device_qaoa_native_and_seeded(self):
        topology = heavy_hex(3)
        a = device_qaoa(topology, seed=3)
        b = device_qaoa(topology, seed=3)
        c = device_qaoa(topology, seed=4)
        gates = lambda circ: [(g.name, g.qubits, g.params) for g in circ.gates]
        assert gates(a) == gates(b)
        assert gates(a) != gates(c)
        for gate in a.gates:
            if gate.num_qubits == 2:
                assert topology.has_edge(*gate.qubits)

    def test_device_qv_native_and_seeded(self):
        topology = heavy_hex(3)
        a = device_qv(topology, seed=1)
        b = device_qv(topology, seed=1)
        gates = lambda circ: [(g.name, g.qubits, g.params) for g in circ.gates]
        assert gates(a) == gates(b)
        two_q = [g for g in a.gates if g.num_qubits == 2]
        assert two_q
        for gate in two_q:
            assert topology.has_edge(*gate.qubits)

    def test_bench_circuit_compiles_native(self):
        topology = heavy_hex(3)
        circuit = bench_circuit(topology, "qaoa")
        assert circuit.num_qubits == topology.num_qubits
        for gate in circuit.gates:
            assert gate.is_native
            if gate.num_qubits == 2:
                assert topology.has_edge(*gate.qubits)
        with pytest.raises(ValueError):
            bench_circuit(topology, "nope")


def _networkx_distances(topology: Topology) -> np.ndarray:
    """All-pairs BFS lengths from networkx, ``inf`` where unreachable."""
    n = topology.num_qubits
    matrix = np.full((n, n), np.inf)
    for u, lengths in nx.all_pairs_shortest_path_length(topology.graph):
        for v, length in lengths.items():
            matrix[u, v] = length
    return matrix


def _graph(num_nodes: int, edges) -> Topology:
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    graph.add_edges_from(edges)
    return Topology(graph)


@st.composite
def _random_graphs(draw):
    n = draw(st.integers(1, 30))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=3 * n))
    return _graph(n, [(u, v) for u, v in edges if u != v])


class TestDistanceMatrix:
    @pytest.mark.parametrize(
        "topology",
        [
            grid(3, 4), heavy_hex(3), line(5), grid(20, 20), line(1),
            ring(7), star(9), ibmq_vigo(), heavy_hex(5), eagle(), osprey(),
        ],
        ids=[
            "grid", "hex", "line", "grid20x20", "line1", "ring7", "star9",
            "vigo", "hummingbird", "eagle", "osprey",
        ],
    )
    def test_matches_networkx(self, topology):
        matrix = topology.distance_matrix
        assert matrix.dtype == np.float64
        assert np.array_equal(matrix, _networkx_distances(topology))
        expected = dict(nx.all_pairs_shortest_path_length(topology.graph))
        n = topology.num_qubits
        for u in range(n):
            for v in range(n):
                assert topology.distance(u, v) == expected[u][v]

    @pytest.mark.parametrize(
        "num_nodes,edges",
        [
            (6, [(0, 1), (1, 2), (3, 4)]),  # two components and a lone node
            (5, [(0, 1), (1, 2), (2, 3)]),  # one isolated node
            (4, []),  # no couplings at all
        ],
        ids=["disconnected", "isolated-node", "edgeless"],
    )
    def test_equals_networkx_off_connected_graphs(self, num_nodes, edges):
        topology = _graph(num_nodes, edges)
        matrix = topology.distance_matrix
        assert np.isinf(matrix).any()
        assert np.array_equal(matrix, _networkx_distances(topology))
        assert not topology.is_connected

    @given(_random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_equals_networkx_on_random_graphs(self, topology):
        assert np.array_equal(
            topology.distance_matrix, _networkx_distances(topology)
        )

    def test_disconnected_and_out_of_range(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(3))
        graph.add_edge(0, 1)
        topology = Topology(graph)
        assert not topology.is_connected
        with pytest.raises(ValueError):
            topology.distance(0, 2)
        with pytest.raises(ValueError):
            topology.distance(0, 3)
        with pytest.raises(ValueError):
            topology.distance(-1, 0)

    def test_gate_distance_matrix_matches_pairwise(self):
        topology = heavy_hex(3)
        circuit = bench_circuit(topology, "qv")
        gates = circuit.two_qubit_gates()[:12]
        matrix = gate_distance_matrix(topology, gates)
        for i, a in enumerate(gates):
            for j, b in enumerate(gates):
                assert int(matrix[i, j]) == gate_distance(topology, a, b)

    def test_gate_distance_matrix_mixed_arity(self):
        topology = grid(2, 3)
        circuit = Circuit(6)
        circuit.h(0)
        circuit.cx(1, 2)
        circuit.cx(3, 5)
        gates = list(circuit.gates)
        matrix = gate_distance_matrix(topology, gates)
        for i, a in enumerate(gates):
            for j, b in enumerate(gates):
                assert int(matrix[i, j]) == gate_distance(topology, a, b)

    def test_empty_gate_list(self):
        assert gate_distance_matrix(grid(2, 2), []).shape == (0, 0)


class TestPlanCache:
    def test_memoizes_and_counts(self):
        topology = grid(2, 3)
        cache = SuppressionPlanCache()
        a = cache.plan(topology, (0, 1))
        b = cache.plan(topology, (0, 1))
        assert a is b
        assert cache.stats == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1,
        }
        assert cache.hit_rate == 0.5
        cache.clear()
        assert cache.stats == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0,
        }

    def test_shared_across_equal_topologies(self):
        # Two instances with the same structure share the fingerprint, so
        # one cache serves both (plans depend only on the structure).
        cache = SuppressionPlanCache()
        first = cache.plan(grid(2, 3), (0, 1))
        second = cache.plan(grid(2, 3), (0, 1))
        assert first is second

    def test_distinct_keys_not_conflated(self):
        cache = SuppressionPlanCache()
        cache.plan(grid(2, 3), (0, 1), alpha=0.5)
        cache.plan(grid(2, 3), (0, 1), alpha=1.0)
        cache.plan(grid(2, 3), (0, 1), top_k=2)
        cache.plan(grid(2, 2), (0, 1))
        assert cache.stats["misses"] == 4

    def test_null_cache_never_stores(self):
        cache = NullPlanCache()
        a = cache.plan(grid(2, 3), (0, 1))
        b = cache.plan(grid(2, 3), (0, 1))
        assert a is not b
        assert a.coloring == b.coloring
        assert len(cache) == 0

    def test_shared_plan_cache_exists(self):
        assert isinstance(SHARED_PLAN_CACHE, SuppressionPlanCache)
        # One mechanism, one constant bound: no per-caller re-bounding.
        assert isinstance(SHARED_PLAN_CACHE, MemoCache)
        assert SHARED_PLAN_CACHE.maxsize == PLAN_CACHE_SIZE == 4096
        assert not hasattr(SHARED_PLAN_CACHE, "resize")

    def test_cache_equivalence_oracle(self):
        topology = heavy_hex(3)
        circuit = bench_circuit(topology, "qaoa")
        assert check_plan_cache_equivalence(circuit, topology) == []


class TestTwoQIndexPools:
    def test_repeated_cx_gates_all_scheduled_once(self, grid34):
        """Regression: value-equal duplicate gates must never shadow each
        other in the grouping pools (the old remove-by-equality hazard)."""
        circuit = Circuit(12)
        for _ in range(3):
            circuit.cx(0, 1)
            circuit.cx(4, 5)
            circuit.cx(10, 11)
            circuit.cx(6, 7)
        native = _native(circuit)
        schedule = zzx_schedule(native, grid34)
        scheduled = [
            (g.name, g.qubits, g.params) for g in schedule.all_gates()
        ]
        expected = sorted((g.name, g.qubits, g.params) for g in native.gates)
        assert sorted(scheduled) == expected
        assert check_legality(schedule, native, grid34) == []

    def test_duplicate_heavy_ready_sets_cache_equivalent(self, grid34):
        circuit = Circuit(12)
        for _ in range(2):
            for pair in ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)):
                circuit.cx(*pair)
        native = _native(circuit)
        assert check_plan_cache_equivalence(native, grid34) == []


def _native(circuit: Circuit) -> Circuit:
    from repro.circuits.transpile import transpile

    return transpile(circuit)


class TestDeviceSpecFamily:
    def test_heavy_hex_spec_round_trip(self):
        spec = DeviceSpec(rows=7, cols=0, family="heavy_hex", seed=3)
        assert spec.num_qubits == 127
        assert spec.label == "heavyhex-d7/s3"
        assert spec.topology().num_qubits == 127
        assert DeviceSpec.from_payload(spec.payload()) == spec

    def test_grid_payload_stays_legacy(self):
        # Grid specs must keep their historical payload (and store keys).
        payload = DeviceSpec().payload()
        assert "family" not in payload
        assert DeviceSpec.from_payload(payload) == DeviceSpec()

    def test_invalid_family_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec(family="torus")
        with pytest.raises(ValueError):
            DeviceSpec(rows=4, family="heavy_hex")


class TestSchedBenchCli:
    def test_smoke(self, capsys):
        code = cli_main(
            [
                "sched-bench",
                "--devices",
                "heavyhex:3",
                "--circuits",
                "qaoa",
                "--no-uncached",
                "--check",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sched-bench" in out
        assert "heavyhex:3" in out

    def test_unknown_device_exits_2(self, capsys):
        assert cli_main(["sched-bench", "--devices", "torus:9"]) == 2
        assert "invalid sched-bench" in capsys.readouterr().err

    def test_unknown_circuit_exits_2(self, capsys):
        assert cli_main(["sched-bench", "--circuits", "qpe"]) == 2
        assert "unknown circuit" in capsys.readouterr().err

    def test_heavyhex_sweep_grid_spec(self, capsys):
        code = cli_main(
            [
                "sweep",
                "--benchmarks",
                "QAOA",
                "--sizes",
                "4",
                "--configs",
                "pert+zzx",
                "--grid",
                "heavyhex:3",
                "--kind",
                "exec_time",
            ]
        )
        assert code == 0
        assert "heavyhex-d3" in capsys.readouterr().out

    def test_bad_grid_spec_exits_2(self, capsys):
        code = cli_main(
            ["sweep", "--benchmarks", "QAOA", "--grid", "heavyhex:four"]
        )
        assert code == 2
        assert "invalid sweep" in capsys.readouterr().err


@pytest.mark.tier2
class TestScaleSmoke:
    """127-qubit compile-path smoke: wall-clock budget + every oracle."""

    #: Generous CI budget; the measured cold compile is ~0.5s (QAOA) and
    #: ~2s (QV) on a laptop-class core.
    BUDGET_S = 60.0

    @pytest.mark.parametrize("kind", ["qaoa", "qv"])
    def test_eagle_within_budget_and_legal(self, kind):
        # scale_context builds the one-time structures outside the budget.
        topology, requirement = scale_context("eagle")
        circuit = bench_circuit(topology, kind)
        start = time.perf_counter()
        schedule = zzx_schedule(circuit, topology, requirement)
        elapsed = time.perf_counter() - start
        assert elapsed < self.BUDGET_S, f"127q {kind} took {elapsed:.1f}s"
        assert check_legality(schedule, circuit, topology) == []
        assert check_suppression(schedule, topology, requirement) == []

    def test_warm_cache_speedup(self):
        point = run_point("eagle", "qaoa", compare_uncached=True)
        # Half the measured ~10x to absorb machine-load jitter.
        assert point.uncached_s / point.warm_s >= 5.0, point.row()
