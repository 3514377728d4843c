"""Tests for the ``repro serve`` process backend (fork-warm worker pool).

The contract: ``--backend process`` changes *where* batches execute —
never *what* they answer.  Responses are digest-identical to the thread
backend and to one-shot compiles, a killed worker is replaced with its
in-flight batch re-dispatched (zero failed client requests), and /stats
aggregates across workers.
"""

import os
import signal
import threading
import time

import pytest

from repro import telemetry
from repro.campaigns.runner import MAX_POOL_RESPAWNS
from repro.campaigns.spec import Cell, DeviceSpec
from repro.serve import (
    ProcessWorkerPool,
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
)
from repro.serve import procpool
from repro.serve.loadtest import one_shot
from repro.serve.protocol import CompileRequest, SimulateRequest

DEVICE = "grid:2x3"
SIM_CELL = Cell("QAOA", 4, "pert+zzx", device=DeviceSpec(rows=2, cols=3))


@pytest.fixture(autouse=True)
def _telemetry_off():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture(scope="module")
def proc_daemon():
    server = ReproServer(ServeConfig(port=0, workers=2, backend="process"))
    thread = server.start_background()
    client = ServeClient(port=server.port)
    client.wait_ready()
    yield server, client
    try:
        client.shutdown()
    except ServeError:
        server.request_stop()
    client.close()
    thread.join(timeout=15.0)


class TestProcessBackend:
    def test_health_reports_backend(self, proc_daemon):
        _, client = proc_daemon
        health = client.health()
        assert health["status"] == "ok"
        assert health["backend"] == "process"

    def test_digest_identical_to_one_shot_and_thread_backend(
        self, proc_daemon
    ):
        """The equivalence pin across all three execution modes."""
        _, client = proc_daemon
        served = client.compile(DEVICE, "qaoa")
        assert served["status"] == "ok"
        assert served["digest"] == one_shot(DEVICE, "qaoa")["digest"]
        threaded = ReproServer(
            ServeConfig(port=0, workers=2, backend="thread")
        )
        thread = threaded.start_background()
        mine = ServeClient(port=threaded.port)
        try:
            mine.wait_ready()
            assert mine.compile(DEVICE, "qaoa")["digest"] == served["digest"]
        finally:
            try:
                mine.shutdown()
            except ServeError:
                threaded.request_stop()
            mine.close()
            thread.join(timeout=15.0)

    def test_mixed_compile_and_simulate_batches(self, proc_daemon):
        _, client = proc_daemon
        compiled = client.compile(DEVICE, "qv", seed=1)
        simulated = client.simulate(SIM_CELL)
        assert compiled["status"] == "ok"
        assert simulated["status"] == "ok"
        assert compiled["digest"] == one_shot(DEVICE, "qv", 1)["digest"]
        assert "fidelity" in str(simulated["result"]) or simulated["result"]

    def test_handler_failure_is_500(self, proc_daemon):
        _, client = proc_daemon
        with pytest.raises(ServeError) as info:
            client.compile("tarantula", "qaoa")
        assert info.value.status == 500
        assert info.value.payload["status"] == "error"

    def test_killed_idle_worker_is_respawned_under_load(self, proc_daemon):
        """SIGKILL one worker, then run concurrent load: zero failed
        requests, and the pool reports the respawn."""
        server, client = proc_daemon
        victim = server.procpool.pids()[0]
        os.kill(victim, signal.SIGKILL)
        digests, errors = [], []
        lock = threading.Lock()

        def body():
            mine = ServeClient(port=server.port)
            try:
                for seed in range(4):
                    response = mine.compile(DEVICE, "qaoa", seed=seed)
                    with lock:
                        digests.append(response["digest"])
            except ServeError as exc:  # pragma: no cover - must not happen
                with lock:
                    errors.append(exc)
            finally:
                mine.close()

        pool = [threading.Thread(target=body) for _ in range(2)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert errors == []
        assert len(digests) == 8
        assert server.procpool.respawns >= 1
        assert victim not in server.procpool.pids()
        # Respawn restored full capacity.
        assert len(server.procpool.pids()) == 2

    def test_stats_aggregates_across_workers(self, proc_daemon):
        _, client = proc_daemon
        stats = client.stats()
        assert stats["backend"] == "process"
        assert stats["workers"] == 2
        assert stats["worker_processes"] == 2
        assert stats["requests"] >= 1
        assert stats["batches"] >= 1
        assert set(stats["plan_cache"]) >= {"hits", "misses", "size"}
        assert "respawns" in stats
        assert "queue_depth" in stats


class TestProcessWorkerPool:
    def test_kill_mid_batch_redispatches_and_answers_ok(self):
        """A worker SIGKILLed while computing a batch: the replacement
        re-runs it and the caller still gets a success response."""
        pool = ProcessWorkerPool(1)
        pool.start()
        box = {}
        # Several distinct cells so the batch computes for long enough
        # (each ~0.1s; per-worker stores can't shortcut fresh cells) that
        # the kill below lands mid-batch, not between batches.
        batch = [
            SimulateRequest(
                Cell(bench, size, "pert+zzx", device=SIM_CELL.device)
            )
            for bench in ("QAOA", "Ising")
            for size in (4, 5, 6)
        ]
        try:
            runner = threading.Thread(
                target=lambda: box.update(responses=pool.run_batch(batch))
            )
            runner.start()
            time.sleep(0.2)  # batch dispatched; evaluation takes longer
            os.kill(pool.pids()[0], signal.SIGKILL)
            runner.join(timeout=120.0)
            assert not runner.is_alive()
            assert [r["status"] for r in box["responses"]] == ["ok"] * len(batch)
            assert pool.respawns == 1
        finally:
            pool.shutdown()

    def test_batch_order_preserved(self):
        pool = ProcessWorkerPool(1)
        pool.start()
        try:
            requests = [
                CompileRequest(DEVICE, "qaoa", 0),
                CompileRequest(DEVICE, "qv", 0),
                CompileRequest(DEVICE, "qaoa", 1),
            ]
            responses = pool.run_batch(requests)
            assert [r["status"] for r in responses] == ["ok"] * 3
            assert [(r["circuit"], r["seed"]) for r in responses] == [
                ("qaoa", 0), ("qv", 0), ("qaoa", 1),
            ]
        finally:
            pool.shutdown()

    def test_redispatch_budget_is_bounded(self):
        assert MAX_POOL_RESPAWNS >= 1


def _sim_batch(bench: str) -> list:
    """Three fresh simulate cells: ~1 s of work, so a kill lands mid-batch."""
    return [
        SimulateRequest(Cell(bench, size, "pert+zzx", device=SIM_CELL.device))
        for size in (4, 5, 6)
    ]


def _run_in_threads(pool, batches: dict):
    """Start one ``run_batch`` thread per batch; returns a join function
    that waits for them and gives ``{name: responses}``."""
    box = {}
    threads = [
        threading.Thread(
            target=lambda name=name, batch=batch: box.update(
                {name: pool.run_batch(batch)}
            )
        )
        for name, batch in batches.items()
    ]
    for thread in threads:
        thread.start()

    def join():
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        return box

    return join


class TestWholePoolRebuild:
    """A worker death breaks the whole pool: one rebuild, every batch re-run."""

    def test_kill_during_two_batches_rebuilds_once(self):
        pool = ProcessWorkerPool(2)
        pool.start()
        try:
            batches = {"qaoa": _sim_batch("QAOA"), "ising": _sim_batch("Ising")}
            join = _run_in_threads(pool, batches)
            time.sleep(0.3)  # both batches running on the two workers
            os.kill(pool.pids()[0], signal.SIGKILL)
            box = join()
            for name, batch in batches.items():
                assert [r["status"] for r in box[name]] == ["ok"] * len(batch)
            assert pool.respawns == 1
            assert len(pool.pids()) == 2
        finally:
            pool.shutdown()

    def test_abandons_batch_past_the_respawn_budget(self, monkeypatch):
        monkeypatch.setattr(procpool, "MAX_POOL_RESPAWNS", 0)
        pool = ProcessWorkerPool(1)
        pool.start()
        try:
            batch = _sim_batch("QAOA")
            join = _run_in_threads(pool, {"qaoa": batch})
            time.sleep(0.3)
            os.kill(pool.pids()[0], signal.SIGKILL)
            responses = join()["qaoa"]
            assert len(responses) == len(batch)
            for response in responses:
                assert response["status"] == "error"
                assert response["kind"] == "simulate"
                assert response["error"]["type"] == "WorkerCrashed"
            # The broken pool was still rebuilt: later batches are served.
            assert pool.respawns == 1
            again = pool.run_batch([CompileRequest(DEVICE, "qaoa", 0)])
            assert again[0]["status"] == "ok"
        finally:
            pool.shutdown()

    def test_stats_counters_survive_a_respawn(self):
        pool = ProcessWorkerPool(1)
        pool.start()
        try:
            first = [CompileRequest(DEVICE, "qaoa", seed) for seed in range(3)]
            assert all(r["status"] == "ok" for r in pool.run_batch(first))
            before = pool.stats()
            assert before["requests"] == 3
            os.kill(pool.pids()[0], signal.SIGKILL)
            second = pool.run_batch([CompileRequest(DEVICE, "qv", 0)])
            assert second[0]["status"] == "ok"
            after = pool.stats()
            assert pool.respawns == 1
            assert after["requests"] >= before["requests"]
            assert after["requests"] == 4
            assert after["scale_circuit"]["misses"] == 4
        finally:
            pool.shutdown()

    def test_stats_sums_every_numeric_leaf(self):
        total = {}
        procpool._add_leaves(total, {"a": 1, "nested": {"x": 2}, "path": None})
        procpool._add_leaves(
            total, {"a": 2, "nested": {"x": 3, "new": 1}, "path": "p"}
        )
        assert total == {"a": 3, "nested": {"x": 5, "new": 1}, "path": None}
