"""CLI and end-to-end integration tests."""

import numpy as np
import pytest

from repro.cli import main
from repro.circuits import compile_circuit
from repro.circuits.library import BENCHMARKS
from repro.device import grid, make_device
from repro.pulses import build_library
from repro.runtime import execute_statevector
from repro.scheduling import par_schedule, zzx_schedule


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig16" in out and "fig27" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig20" in capsys.readouterr().out

    def test_run_fig28(self, capsys):
        assert main(["fig28"]) == 0
        out = capsys.readouterr().out
        assert "pert" in out and "dcg" in out

    def test_unknown_experiment_exits_2_with_known_list(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err
        assert "fig20" in err  # the known-experiment list is printed

    def test_sweep_and_report_subcommands(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        grid = [
            "--benchmarks", "QAOA", "--sizes", "4",
            "--configs", "gau+par,pert+zzx", "--store", store,
        ]
        assert main(["sweep", *grid]) == 0
        assert "2 computed" in capsys.readouterr().out
        assert main(["sweep", *grid]) == 0
        assert "0 computed, 2 cached" in capsys.readouterr().out
        assert main(["report", *grid]) == 0
        assert "QAOA-4" in capsys.readouterr().out
        assert main(["list", "--store", store]) == 0
        assert "2 records" in capsys.readouterr().out

    def test_report_requires_store(self, capsys):
        assert main(["report"]) == 2

    def test_plan_predicts_without_computing(self, capsys):
        args = [
            "plan", "--benchmarks", "QAOA,Ising", "--sizes", "4,6",
            "--configs", "gau+par,pert+zzx", "--shards", "2",
            "--workers", "4", "--cores", "4",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "8 cells over 2 shard(s)" in out
        assert "heuristic cost model" in out
        assert "shard 0/2" in out and "shard 1/2" in out
        assert "campaign finishes with shard" in out

    def test_plan_calibrates_from_store(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        sweep = [
            "--benchmarks", "QAOA", "--sizes", "4",
            "--configs", "gau+par", "--store", store,
        ]
        assert main(["sweep", *sweep]) == 0
        capsys.readouterr()
        assert main(["plan", *sweep]) == 0
        out = capsys.readouterr().out
        assert "measured cost bucket(s)" in out

    def test_plan_single_shard_view(self, capsys):
        args = [
            "plan", "--benchmarks", "QAOA", "--sizes", "4",
            "--configs", "gau+par,pert+zzx", "--shard", "1/3",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "shard 1/3" in out
        assert "shard 0/3" not in out

    def test_plan_rejects_bad_inputs(self, capsys):
        base = ["plan", "--benchmarks", "QAOA", "--sizes", "4"]
        assert main([*base, "--shard", "5/2"]) == 2
        assert main([*base, "--shard", "0/2", "--shards", "3"]) == 2
        assert "conflicts" in capsys.readouterr().err
        assert main([*base, "--shards", "0"]) == 2

    def test_sweep_rejects_bad_inputs(self, capsys):
        assert main(["sweep", "--configs", "gau+zzz"]) == 2
        assert "known:" in capsys.readouterr().err
        assert main(["sweep", "--kind", "density"]) == 2  # missing --t1
        assert main(["sweep", "--grid", "3x"]) == 2
        assert main(["sweep", "--sizes", "12", "--grid", "2x3"]) == 2
        assert "0 cells" in capsys.readouterr().err

    def test_sweep_rejects_bad_policy_flags(self, capsys):
        base = ["sweep", "--benchmarks", "QAOA", "--sizes", "4",
                "--configs", "gau+par"]
        assert main([*base, "--max-attempts", "0"]) == 2
        assert "max_attempts" in capsys.readouterr().err
        assert main([*base, "--cell-timeout", "-1"]) == 2
        assert "timeout_s" in capsys.readouterr().err
        assert main([*base, "--max-failures", "-1"]) == 2
        assert "max_failures" in capsys.readouterr().err

    def test_sweep_max_failures_abort_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.campaigns.faults import ENV_FAULT

        monkeypatch.setenv(ENV_FAULT, "fatal:times=99")
        store = str(tmp_path / "store.jsonl")
        code = main([
            "sweep", "--benchmarks", "QAOA", "--sizes", "4",
            "--configs", "gau+par,pert+zzx", "--store", store,
            "--max-attempts", "1", "--max-failures", "0",
        ])
        assert code == 1
        assert "aborted:" in capsys.readouterr().err

    def test_sweep_with_failures_exits_1_and_triages(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.campaigns.faults import ENV_FAULT

        monkeypatch.setenv(ENV_FAULT, "fatal:times=99:match=QAOA")
        store = str(tmp_path / "store.jsonl")
        grid = [
            "sweep", "--benchmarks", "QAOA,Ising", "--sizes", "4",
            "--configs", "gau+par", "--store", store, "--max-attempts", "1",
        ]
        assert main(grid) == 1
        captured = capsys.readouterr()
        assert "1 failed" in captured.out
        assert "--retry-quarantined" in captured.err
        # Fault cleared: --retry-quarantined heals the store, exit 0.
        monkeypatch.delenv(ENV_FAULT)
        assert main([*grid, "--retry-quarantined"]) == 0
        assert "1 computed, 1 cached" in capsys.readouterr().out

    def test_chaos_scenario_filter(self, capsys):
        # fault-free is the cheapest scenario: one campaign, no faults.
        assert main(["chaos", "--scenarios", "fault-free"]) == 0
        out = capsys.readouterr().out
        assert "fault-free" in out and "1/1 passed" in out

    def test_chaos_unknown_scenario_exits_2(self, capsys):
        assert main(["chaos", "--scenarios", "no-such-scenario"]) == 2
        assert "no scenario matches" in capsys.readouterr().err

    def test_run_warns_on_ignored_options(self, capsys):
        assert main(["run", "tab-compile", "--seeds", "11"]) == 0
        assert "does not take seeds" in capsys.readouterr().err

    def test_run_subcommand_with_workers(self, capsys):
        assert main(["run", "fig24", "--workers", "2"]) == 0
        assert "fig24" in capsys.readouterr().out


class TestTelemetryCLI:
    @pytest.fixture(autouse=True)
    def _restore_telemetry(self, monkeypatch):
        """--telemetry enables a process-global; undo it between tests."""
        from repro import telemetry
        from repro.telemetry import core, log

        monkeypatch.delenv(core.ENV_TELEMETRY, raising=False)
        yield
        telemetry.disable()
        telemetry.reset()
        log.configure(0)

    SWEEP = [
        "sweep", "--benchmarks", "QAOA", "--sizes", "4",
        "--configs", "gau+par",
    ]

    def test_sweep_telemetry_writes_trace_and_stats_renders(
        self, tmp_path, capsys
    ):
        trace = str(tmp_path / "trace.jsonl")
        assert main([*self.SWEEP, "--telemetry", trace]) == 0
        captured = capsys.readouterr()
        assert "1 computed" in captured.out
        assert f"telemetry trace written to {trace}" in captured.err

        assert main(["stats", trace]) == 0
        out = capsys.readouterr().out
        assert "span tree:" in out
        assert "campaign.cell" in out
        assert "latency percentiles:" in out
        assert "QAOA-4/gau+par" in out

    def test_stats_diff(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        assert main([*self.SWEEP, "--telemetry", a]) == 0
        assert main([*self.SWEEP, "--telemetry", b]) == 0
        capsys.readouterr()
        assert main(["stats", a, "--diff", b]) == 0
        out = capsys.readouterr().out
        assert "telemetry diff" in out
        assert "ratio" in out

    def test_stats_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 2
        assert "invalid stats" in capsys.readouterr().err

    def test_quiet_suppresses_info_diagnostics(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main([*self.SWEEP, "--telemetry", str(trace), "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "telemetry trace written" not in captured.err
        assert trace.exists()  # quiet mutes the message, not the trace
        assert "1 computed" in captured.out  # tables always print

    def test_trace_records_startup_imports_once(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli, telemetry

        monkeypatch.setattr(cli, "_IMPORTS_S", 0.25)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main([*self.SWEEP, "--telemetry", str(first)]) == 0
        spans = {s["path"]: s for s in telemetry.read_trace(first)["spans"]}
        assert spans["startup.imports"]["count"] == 1
        assert spans["startup.imports"]["total_s"] == 0.25
        telemetry.reset()
        # The imports happened once, so a second command in the same
        # process does not record them again.
        assert main([*self.SWEEP, "--telemetry", str(second)]) == 0
        paths = {s["path"] for s in telemetry.read_trace(second)["spans"]}
        assert "startup.imports" not in paths
        capsys.readouterr()
        assert main(["stats", str(first)]) == 0
        assert "startup.imports" in capsys.readouterr().out

    def test_telemetry_off_by_default(self, capsys):
        from repro import telemetry

        assert main(self.SWEEP) == 0
        capsys.readouterr()
        assert not telemetry.enabled()


class TestEndToEnd:
    """The paper's headline claims on a 6-qubit device (fast subset)."""

    @pytest.fixture(scope="class")
    def stack(self):
        device = make_device(grid(2, 3), seed=7)
        return device, build_library("gaussian"), build_library("pert")

    @pytest.mark.parametrize("name", ["HS", "QAOA", "Ising", "GRC"])
    def test_co_optimization_improves_every_benchmark(self, stack, name):
        device, gau, pert = stack
        compiled = compile_circuit(BENCHMARKS[name](4), device.topology)
        base = execute_statevector(par_schedule(compiled.circuit), device, gau)
        ours = execute_statevector(
            zzx_schedule(compiled.circuit, device.topology), device, pert
        )
        assert ours.fidelity > base.fidelity
        assert ours.fidelity > 0.9

    def test_execution_time_tradeoff_bounded(self, stack):
        device, gau, pert = stack
        compiled = compile_circuit(BENCHMARKS["QAOA"](6), device.topology)
        base = execute_statevector(par_schedule(compiled.circuit), device, gau)
        ours = execute_statevector(
            zzx_schedule(compiled.circuit, device.topology), device, pert
        )
        assert ours.execution_time_ns <= 2.5 * base.execution_time_ns

    def test_insensitivity_to_pulse_method(self, stack):
        """Fig. 20 claim: OptCtrl and Pert give similar end results."""
        device, _, pert = stack
        optctrl = build_library("optctrl")
        compiled = compile_circuit(BENCHMARKS["Ising"](6), device.topology)
        schedule = zzx_schedule(compiled.circuit, device.topology)
        f_pert = execute_statevector(schedule, device, pert).fidelity
        f_octl = execute_statevector(schedule, device, optctrl).fidelity
        assert abs(f_pert - f_octl) < 0.1

    def test_trotter_dt_convergence(self, stack):
        """Halving dt must not change fidelities materially."""
        device, gau, pert = stack
        compiled = compile_circuit(BENCHMARKS["Ising"](4), device.topology)
        schedule = zzx_schedule(compiled.circuit, device.topology)
        lib_fine = build_library("gaussian")
        # Same pulses at the default dt; engine dt equals pulse dt, so
        # compare instead the baseline scheduler across both libraries.
        f1 = execute_statevector(schedule, device, pert).fidelity
        f2 = execute_statevector(schedule, device, pert, dt=0.25).fidelity
        assert np.isclose(f1, f2, atol=1e-9)
