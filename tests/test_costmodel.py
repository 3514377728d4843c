"""Cost-model dispatch tests: estimates, calibration, LJF order, decisions."""

import pytest

from repro.campaigns.costmodel import (
    EMPTY_CALIBRATION,
    MIN_PARALLEL_TOTAL_S,
    CostCalibration,
    cost_features,
    decide_dispatch,
    estimate_cost,
    heuristic_cost,
    order_longest_first,
    predict_shards,
)
from repro.campaigns.runner import (
    _cached_schedule,
    _clear_warm_caches,
    _prewarm_parent,
    _warm_worker,
    cached_device,
    cached_library,
    run_campaign,
)
from repro.campaigns.spec import Cell, DeviceSpec, SweepSpec
from repro.campaigns.store import ResultStore
from repro.scheduling.plan_cache import SHARED_PLAN_CACHE

FP = "costmodel-fp"


def _cell(benchmark="QAOA", n=4, config="gau+par", **kw):
    return Cell(benchmark=benchmark, num_qubits=n, config=config, **kw)


class TestHeuristics:
    def test_statevector_cost_grows_with_circuit_size(self):
        # Measured scaling is ~n**2 (layers x gates), not 2**n: QFT-12
        # really costs ~3.4s, ~12x a 4-qubit cell's 0.28s.
        small = heuristic_cost(_cell(n=4))
        big = heuristic_cost(_cell(benchmark="QFT", n=12))
        assert big > 5 * small

    def test_density_dominates_statevector_at_equal_size(self):
        sv = _cell(n=4)
        dm = _cell(n=4, kind="density", t1_us=100.0, t2_us=100.0)
        assert heuristic_cost(dm) > heuristic_cost(sv)

    def test_analysis_kinds_cost_only_scheduling(self):
        sched_only = heuristic_cost(_cell(n=4, kind="exec_time", config="pert+zzx"))
        simulated = heuristic_cost(_cell(n=4, config="pert+zzx"))
        assert sched_only < simulated / 10

    def test_zzx_scheduling_costs_more_than_par(self):
        par = heuristic_cost(_cell(n=4, kind="exec_time", config="gau+par"))
        zzx = heuristic_cost(_cell(n=4, kind="exec_time", config="pert+zzx"))
        assert zzx > par

    def test_trajectory_cost_scales_with_sample_count(self):
        few = _cell(n=4, backend="trajectories", trajectories=10,
                    t1_us=100.0, t2_us=100.0)
        many = _cell(n=4, backend="trajectories", trajectories=100,
                     t1_us=100.0, t2_us=100.0)
        assert heuristic_cost(many) == pytest.approx(10 * heuristic_cost(few), rel=0.2)

    def test_cost_features_ignore_seeds(self):
        a = _cell(device=DeviceSpec(seed=7), circuit_seed=0)
        b = _cell(device=DeviceSpec(seed=9), circuit_seed=3)
        assert cost_features(a.payload()) == cost_features(b.payload())


class TestCalibration:
    def _record(self, cell, elapsed, status="ok"):
        record = {
            "key": "k" + str(id(cell))[-6:] + str(elapsed),
            "fingerprint": FP,
            "cell": cell.payload(),
            "result": {"fidelity": 0.9},
            "elapsed_s": elapsed,
        }
        if status != "ok":
            record["status"] = status
        return record

    def test_measured_mean_overrides_heuristic(self):
        cell = _cell()
        cal = CostCalibration.from_records(
            [self._record(cell, 2.0), self._record(cell, 4.0)]
        )
        assert cal.estimate(cell) == pytest.approx(3.0)
        # A cell with no bucket falls back to the heuristic.
        other = _cell(benchmark="QFT", n=6)
        assert cal.estimate(other) == heuristic_cost(other)

    def test_failure_records_do_not_calibrate(self):
        cell = _cell()
        cal = CostCalibration.from_records(
            [self._record(cell, 500.0, status="timeout")]
        )
        assert len(cal) == 0
        assert cal.estimate(cell) == heuristic_cost(cell)

    def test_seed_siblings_share_a_bucket(self):
        sampled = _cell(device=DeviceSpec(seed=7))
        sibling = _cell(device=DeviceSpec(seed=11))
        cal = CostCalibration.from_records([self._record(sampled, 2.5)])
        assert cal.estimate(sibling) == pytest.approx(2.5)


class TestOrdering:
    def test_longest_first_and_stable_ties(self):
        light = _cell(n=4)
        heavy = _cell(benchmark="QFT", n=8)
        mid = _cell(benchmark="Ising", n=6)
        ordered = order_longest_first([light, heavy, mid])
        assert ordered[0] == heavy and ordered[-1] == light
        # Equal-cost cells keep input order (deterministic submission).
        same = [_cell(circuit_seed=0), _cell(circuit_seed=1)]
        assert order_longest_first(same) == same
        assert order_longest_first(list(reversed(same))) == list(reversed(same))


class TestDecision:
    CELLS = [_cell(circuit_seed=i) for i in range(8)]

    def test_forced_modes_and_validation(self):
        assert decide_dispatch(self.CELLS, 4, dispatch="serial").serial
        forced = decide_dispatch(self.CELLS, 4, dispatch="parallel")
        assert forced.mode == "parallel" and forced.workers == 4
        with pytest.raises(ValueError, match="unknown dispatch"):
            decide_dispatch(self.CELLS, 4, dispatch="chaotic")

    def test_trivial_requests_go_serial(self):
        assert decide_dispatch(self.CELLS, 1).serial
        assert decide_dispatch(self.CELLS[:1], 4).serial
        assert decide_dispatch([], 4).serial

    def test_one_core_forces_serial_whatever_the_grid(self):
        decision = decide_dispatch(self.CELLS, 4, cores=1)
        assert decision.serial
        assert "core" in decision.reason

    def test_small_grids_never_amortize_a_pool(self):
        cal = CostCalibration({cost_features(c.payload()): 0.05 for c in self.CELLS})
        decision = decide_dispatch(self.CELLS, 4, calibration=cal, cores=8)
        assert decision.serial
        assert decision.est_serial_s < MIN_PARALLEL_TOTAL_S

    def test_big_even_grid_fans_out_on_real_cores(self):
        cal = CostCalibration({cost_features(c.payload()): 5.0 for c in self.CELLS})
        decision = decide_dispatch(self.CELLS, 4, calibration=cal, cores=8)
        assert decision.mode == "parallel" and decision.workers == 4
        assert decision.est_parallel_s < decision.est_serial_s

    def test_one_dominant_cell_keeps_it_serial(self):
        # 39s of 40s total in one cell: parallel can't beat the longest
        # job.  Distinct benchmarks pin each cell to its own cost bucket.
        costs = [39.0] + [1.0 / 7] * 7
        cells = [
            _cell(benchmark=b, n=n)
            for b, n in (("QAOA", 4), ("QFT", 4), ("QPE", 4), ("Ising", 4),
                         ("HS", 4), ("GRC", 4), ("QFT", 6), ("QAOA", 6))
        ]
        cal = CostCalibration(
            {cost_features(c.payload()): costs[i] for i, c in enumerate(cells)}
        )
        decision = decide_dispatch(cells, 4, calibration=cal, cores=8)
        assert decision.serial
        assert "margin" in decision.reason


class TestShardPrediction:
    CELLS = [_cell(circuit_seed=i) for i in range(8)]

    def test_shards_partition_the_grid(self):
        plans = predict_shards(self.CELLS, 3)
        assert [p.label for p in plans] == ["0/3", "1/3", "2/3"]
        assert sum(p.cells for p in plans) == len(self.CELLS)
        total = sum(p.est_cell_s for p in plans)
        serial = sum(estimate_cost(c) for c in self.CELLS)
        assert total == pytest.approx(serial)

    def test_serial_shard_wall_is_its_cell_work(self):
        (plan,) = predict_shards(self.CELLS, 1, requested_workers=1)
        assert plan.mode == "serial"
        assert plan.est_wall_s == pytest.approx(plan.est_cell_s)

    def test_parallel_shard_wall_beats_serial(self):
        cal = CostCalibration(
            {cost_features(c.payload()): 5.0 for c in self.CELLS}
        )
        (plan,) = predict_shards(
            self.CELLS, 1, requested_workers=4, calibration=cal, cores=8
        )
        assert plan.mode == "parallel" and plan.workers == 4
        assert plan.est_wall_s < plan.est_cell_s

    def test_deterministic(self):
        a = predict_shards(self.CELLS, 2, requested_workers=4, cores=4)
        b = predict_shards(self.CELLS, 2, requested_workers=4, cores=4)
        assert a == b

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            predict_shards(self.CELLS, 0)


class TestRunnerIntegration:
    SPEC = SweepSpec(
        name="auto", benchmarks=("QAOA", "Ising"), sizes=(4,),
        configs=("gau+par", "pert+zzx"),
    )

    def test_auto_dispatch_records_the_decision(self):
        campaign = run_campaign(self.SPEC, workers=4, fingerprint=FP)
        # On this grid (a few seconds of cell work) auto dispatch must
        # pick serial regardless of core count — the BENCH_2 regression
        # became a deliberate fast path.
        assert campaign.dispatch == "serial" and campaign.workers == 1
        assert campaign.requested_workers == 4
        assert campaign.downgraded
        assert campaign.dispatch_reason

    def test_serial_run_keeps_legacy_result_fields(self):
        campaign = run_campaign(self.SPEC, fingerprint=FP)
        assert campaign.dispatch == "serial"
        assert not campaign.downgraded  # workers=1 was the request
        assert campaign.computed == 4 or campaign.cached == 4

    def test_calibrated_resume_uses_store_timings(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        run_campaign(self.SPEC, store, fingerprint=FP)
        # A resumed (fully cached) campaign still decides dispatch from
        # the stored timings without error.
        again = run_campaign(
            self.SPEC, ResultStore(store.path), workers=4, fingerprint=FP
        )
        assert again.cached == 4 and again.dispatch == "serial"


class TestWarmCaches:
    def test_prewarm_populates_plan_cache_and_libraries(self):
        _clear_warm_caches()
        cells = [
            _cell(config="pert+zzx"),
            _cell(benchmark="Ising", config="pert+zzx"),
        ]
        assert len(SHARED_PLAN_CACHE) == 0
        assert len(_cached_schedule.cache) == 0
        _prewarm_parent(cells)
        assert len(SHARED_PLAN_CACHE) > 0
        assert cached_library.cache_info().currsize > 0
        assert len(cached_device.cache) == 1
        # One schedule per distinct (circuit, scheduler) signature.
        assert len(_cached_schedule.cache) == 2
        assert _cached_schedule.cache.evictions == 0

    def test_prewarm_skips_scheduling_dominant_kinds(self):
        _clear_warm_caches()
        cells = [_cell(config="pert+zzx", kind="exec_time")]
        _prewarm_parent(cells)
        # Scheduling IS the measured work for exec_time cells: the parent
        # must not pre-solve it (that would serialize the campaign).
        assert len(SHARED_PLAN_CACHE) == 0
        assert len(_cached_schedule.cache) == 0

    def test_cold_worker_initializer_clears_inherited_caches(self):
        _prewarm_parent([_cell(config="pert+zzx")])
        assert len(SHARED_PLAN_CACHE) > 0
        assert len(_cached_schedule.cache) > 0
        _warm_worker(("gaussian",), None, cold=True)
        assert len(SHARED_PLAN_CACHE) == 0
        assert len(_cached_schedule.cache) == 0
        assert len(cached_device.cache) == 0
        # The initializer then warms its own library, as pre-PR workers did.
        assert cached_library.cache_info().currsize == 1

    def test_plan_snapshot_round_trip(self):
        _clear_warm_caches()
        _prewarm_parent([_cell(config="pert+zzx")])
        snapshot = SHARED_PLAN_CACHE.export()
        assert snapshot
        SHARED_PLAN_CACHE.clear()
        _warm_worker(("pert",), snapshot, cold=False)
        assert len(SHARED_PLAN_CACHE) == len(snapshot)

    def test_forced_parallel_matches_serial_with_warm_forks(self, tmp_path):
        spec = SweepSpec(
            name="warm", benchmarks=("QAOA",), sizes=(4,),
            configs=("gau+par", "pert+zzx"),
        )
        serial = run_campaign(spec, fingerprint=FP)
        parallel = run_campaign(
            spec, ResultStore(tmp_path / "p.jsonl"), workers=2,
            fingerprint=FP, dispatch="parallel",
        )
        assert parallel.dispatch == "parallel"
        for cell in spec.cells():
            assert parallel[cell] == serial[cell]
