import numpy as np
import pytest

from repro.circuits import Circuit, compile_circuit, transpile
from repro.circuits.gates import Gate, identity_gate
from repro.circuits.library import qaoa, qft
from repro.device import grid, line
from repro.runtime.ideal import ideal_schedule_state
from repro.scheduling import (
    Layer,
    Schedule,
    SuppressionRequirement,
    ZZXConfig,
    couplings_to_turn_off,
    execution_time,
    gate_distance,
    gate_group_distance,
    layer_suppression_metrics,
    par_schedule,
    zzx_schedule,
)
from repro.scheduling.analysis import ScheduleReport


def native_test_circuit(topo, seed=0):
    return compile_circuit(qaoa(topo.num_qubits, seed=seed), topo).circuit


def assert_schedule_valid(schedule, circuit):
    """Every circuit gate exactly once, layers conflict-free, order kept."""
    schedule.validate()
    scheduled = schedule.all_gates()
    original = [g for g in circuit.gates]
    assert len(scheduled) == len(original)
    # Per-qubit order preservation.
    for q in range(circuit.num_qubits):
        seq_orig = [g for g in original if q in g.qubits]
        seq_sched = [g for g in scheduled if q in g.qubits]
        assert seq_orig == seq_sched


class TestParSched:
    def test_all_gates_scheduled(self, grid23):
        circuit = native_test_circuit(grid23)
        schedule = par_schedule(circuit)
        assert_schedule_valid(schedule, circuit)

    def test_no_identities_inserted(self, grid23):
        schedule = par_schedule(native_test_circuit(grid23))
        assert all(not layer.identities for layer in schedule.layers)

    def test_parallel_friends_share_layer(self):
        # H = Rz.Rx90.Rz, so four parallel Hadamards fill one rx90 layer.
        c = transpile(Circuit(4).h(0).h(1).h(2).h(3))
        schedule = par_schedule(c)
        assert schedule.num_layers == 1
        assert all(len(layer.gates) == 4 for layer in schedule.layers)

    def test_semantics_preserved(self, grid23):
        circuit = native_test_circuit(grid23)
        schedule = par_schedule(circuit)
        ideal = ideal_schedule_state(schedule)
        direct = circuit.output_state()
        assert abs(np.vdot(ideal, direct)) ** 2 > 1.0 - 1e-9


class TestZZXSched:
    def test_all_gates_scheduled(self, grid23):
        circuit = native_test_circuit(grid23)
        schedule = zzx_schedule(circuit, grid23)
        assert_schedule_valid(schedule, circuit)

    def test_semantics_preserved(self, grid23):
        circuit = native_test_circuit(grid23)
        schedule = zzx_schedule(circuit, grid23)
        ideal = ideal_schedule_state(schedule)
        direct = circuit.output_state()
        assert abs(np.vdot(ideal, direct)) ** 2 > 1.0 - 1e-9

    def test_larger_benchmark_schedules(self, grid34):
        circuit = compile_circuit(qft(6), grid34).circuit
        schedule = zzx_schedule(circuit, grid34)
        assert_schedule_valid(schedule, circuit)

    def test_single_qubit_layers_completely_suppressed(self, grid23):
        c = transpile(Circuit(6).h(0).h(1).h(2).h(3).h(4).h(5))
        schedule = zzx_schedule(c, grid23)
        for layer in schedule.layers:
            metrics = layer_suppression_metrics(layer, grid23)
            assert metrics.nc == 0  # complete suppression on bipartite grid

    def test_identities_supplement_single_qubit_layers(self, grid23):
        c = transpile(Circuit(6).h(0))
        schedule = zzx_schedule(c, grid23)
        first = schedule.layers[0]
        assert first.identities  # the rest of the partition is pulsed

    def test_identity_padding_is_interned(self, grid34):
        """Layers share one identity gate per qubit, across schedules too."""
        circuit = compile_circuit(qaoa(9, seed=2), grid34).circuit
        first = zzx_schedule(circuit, grid34)
        second = zzx_schedule(circuit, grid34)
        seen = {}
        for schedule in (first, second):
            for layer in schedule.layers:
                for gate in layer.identities:
                    assert gate == Gate("id", gate.qubits)
                    assert seen.setdefault(gate.qubits, gate) is gate
                    assert gate is identity_gate(gate.qubits[0])
        # Some qubit is padded in more than one layer, so sharing is real.
        padded = [g for l in first.layers for g in l.identities]
        assert len(padded) > len(seen)

    def test_requirement_respected_on_average(self, grid34):
        circuit = compile_circuit(qaoa(9, seed=2), grid34).circuit
        schedule = zzx_schedule(circuit, grid34)
        requirement = SuppressionRequirement.from_topology(grid34)
        report = ScheduleReport.from_schedule(schedule, grid34)
        assert report.mean_nc <= requirement.max_nc_inclusive

    def test_mismatched_device_rejected(self, grid23):
        with pytest.raises(ValueError):
            zzx_schedule(Circuit(3).h(0), grid23)

    def test_identity_policy_all_free_pulses_more(self, grid34):
        circuit = compile_circuit(qaoa(6, seed=1), grid34).circuit
        literal = zzx_schedule(
            circuit, grid34, config=ZZXConfig(identity_policy="not_pending")
        )
        eager = zzx_schedule(
            circuit, grid34, config=ZZXConfig(identity_policy="all_free")
        )
        count_literal = sum(len(l.identities) for l in literal.layers)
        count_eager = sum(len(l.identities) for l in eager.layers)
        assert count_eager >= count_literal

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ZZXConfig(identity_policy="everything")

    def test_zzx_beats_parsched_on_suppression(self, grid34):
        circuit = compile_circuit(qaoa(6, seed=1), grid34).circuit
        par_report = ScheduleReport.from_schedule(par_schedule(circuit), grid34)
        zzx_report = ScheduleReport.from_schedule(
            zzx_schedule(circuit, grid34), grid34
        )
        assert zzx_report.mean_nc < par_report.mean_nc

    def test_execution_time_within_two_x(self, grid34, lib_pert):
        # The paper's Fig. 24 claim on representative workloads.
        circuit = compile_circuit(qaoa(6, seed=1), grid34).circuit
        t_par = execution_time(par_schedule(circuit), lib_pert)
        t_zzx = execution_time(zzx_schedule(circuit, grid34), lib_pert)
        assert t_zzx <= 2.5 * t_par


class TestDistances:
    def test_gate_distance_symmetric(self, grid34):
        a = Gate("rzx90", (0, 1))
        b = Gate("rzx90", (10, 11))
        assert gate_distance(grid34, a, b) == gate_distance(grid34, b, a)

    def test_adjacent_gates_close(self, grid34):
        a = Gate("rzx90", (0, 1))
        b = Gate("rzx90", (4, 5))
        c = Gate("rzx90", (10, 11))
        assert gate_distance(grid34, a, b) < gate_distance(grid34, a, c)

    def test_paper_example_values(self):
        # Fig. 15: D(CNOT_{1,4}, CNOT_{3,6}) = 10 on the 3x3 grid.
        topo = grid(3, 3)
        a = Gate("rzx90", (0, 3))  # qubits 1,4 in the paper's 1-based labels
        b = Gate("rzx90", (2, 5))  # qubits 3,6
        assert gate_distance(topo, a, b) == 10

    def test_group_distance_min(self, grid34):
        a = Gate("rzx90", (0, 1))
        group = [Gate("rzx90", (2, 3)), Gate("rzx90", (10, 11))]
        assert gate_group_distance(grid34, a, group) == min(
            gate_distance(grid34, a, g) for g in group
        )

    def test_empty_group_raises(self, grid34):
        with pytest.raises(ValueError):
            gate_group_distance(grid34, Gate("rzx90", (0, 1)), [])


class TestRequirement:
    def test_from_topology(self, grid34):
        req = SuppressionRequirement.from_topology(grid34)
        assert req.max_nq_exclusive == 4
        assert req.max_nc_inclusive == 8.5

    def test_satisfied_by(self, grid34):
        from repro.graphs import alpha_optimal_suppression

        req = SuppressionRequirement.from_topology(grid34)
        plan = alpha_optimal_suppression(grid34)
        assert req.satisfied_by(plan)


class TestLayerModel:
    def test_double_drive_rejected(self):
        layer = Layer(gates=[Gate("rx90", (0,))], identities=[Gate("id", (0,))])
        with pytest.raises(ValueError):
            layer.validate()

    def test_interned_identity_on_a_gate_qubit_is_driven_twice(self):
        layer = Layer(
            gates=[Gate("rzx90", (0, 1))],
            identities=[identity_gate(2), identity_gate(1)],
        )
        with pytest.raises(ValueError, match="driven twice"):
            layer.validate()

    def test_pulsed_qubits(self):
        layer = Layer(
            gates=[Gate("rzx90", (0, 1))], identities=[Gate("id", (3,))]
        )
        assert layer.pulsed_qubits == {0, 1, 3}
        assert layer.gate_qubits == {0, 1}

    def test_schedule_repr(self):
        s = Schedule(num_qubits=4, policy="parsched")
        assert "parsched" in repr(s)


class TestAnalysis:
    def test_couplings_to_turn_off_ordering(self, grid34):
        circuit = compile_circuit(qaoa(6, seed=1), grid34).circuit
        baseline = couplings_to_turn_off(
            par_schedule(circuit), grid34, baseline=True
        )
        ours = couplings_to_turn_off(
            zzx_schedule(circuit, grid34), grid34, baseline=False
        )
        assert ours < baseline / 3.0

    def test_execution_time_dcg_durations(self, lib_dcg):
        c = transpile(Circuit(2).h(0))
        schedule = par_schedule(c)
        # One rx90 layer at DCG duration 120 ns.
        assert execution_time(schedule, lib_dcg) == 120.0

    def test_empty_schedule(self, grid23, lib_pert):
        s = Schedule(num_qubits=6)
        assert execution_time(s, lib_pert) == 0.0
        assert couplings_to_turn_off(s, grid23, baseline=True) == 0.0
