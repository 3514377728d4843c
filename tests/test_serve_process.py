"""Tests for the ``repro serve`` process backend (fork-warm worker pool).

The contract: ``--backend process`` changes *where* requests execute —
never *what* they answer.  Responses are digest-identical to the thread
backend and to one-shot compiles, a killed worker is replaced with its
in-flight requests re-dispatched (zero failed client requests), and
/stats aggregates across workers.
"""

import asyncio
import os
import signal
import threading

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
        assert set(stats["plan_cache"]) >= {"hits", "misses", "size"}
        assert "respawns" in stats
        assert "queue_depth" in stats


    def test_process_backend_runs_no_dispatcher_threads(self, proc_daemon):
        """Worker slots await the pool on the event loop: concurrent
        compiles leave no ``serve-worker`` thread behind."""
        server, _ = proc_daemon
        statuses = []

        def body(seed):
            mine = ServeClient(port=server.port)
            try:
                statuses.append(mine.compile(DEVICE, "qaoa", seed=seed)["status"])
            finally:
                mine.close()

        clients = [threading.Thread(target=body, args=(s,)) for s in range(4)]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
        assert statuses == ["ok"] * 4
        names = [t.name for t in threading.enumerate()]
        assert not [n for n in names if n.startswith("serve-worker")], names


def _slow_request(bench: str) -> SimulateRequest:
    """A fresh density simulation of about 0.5-1 s (QV, QPE), so a kill
    0.3 s in lands mid-request."""
    return SimulateRequest(
        Cell(bench, 6, "pert+zzx", kind="density", device=SIM_CELL.device,
             t1_us=100.0, t2_us=100.0)
    )


def _run_and_kill(pool, requests, delay_s: float = 0.3) -> list:
    """Serve ``requests`` concurrently on ``pool`` and SIGKILL one worker
    ``delay_s`` in; returns the responses in request order.

    Fails if any request had already been answered when the kill fired:
    the kill tests would then no longer test a mid-request kill.
    """

    async def main():
        tasks = [asyncio.ensure_future(pool.run(r)) for r in requests]
        await asyncio.sleep(delay_s)
        finished = [task.done() for task in tasks]
        os.kill(pool.pids()[0], signal.SIGKILL)
        responses = await asyncio.gather(*tasks)
        assert not any(finished), (
            f"requests answered before the kill at {delay_s} s: {finished}"
        )
        return responses

    return asyncio.run(main())


def _run(pool, request) -> dict:
    return asyncio.run(pool.run(request))


class TestProcessWorkerPool:
    def test_kill_mid_batch_redispatches_and_answers_ok(self):
        """A worker SIGKILLed while computing a request: the replacement
        re-runs it and the caller still gets a success response."""
        pool = ProcessWorkerPool(1)
        pool.start()
        try:
            [response] = _run_and_kill(pool, [_slow_request("QV")])
            assert response["status"] == "ok"
            assert pool.respawns == 1
        finally:
            pool.shutdown()

    def test_redispatch_budget_is_bounded(self):
        assert MAX_POOL_RESPAWNS >= 1


class TestWholePoolRebuild:
    """A worker death breaks the whole pool: one rebuild, every request re-run."""

    def test_kill_during_two_batches_rebuilds_once(self):
        pool = ProcessWorkerPool(2)
        pool.start()
        try:
            responses = _run_and_kill(
                pool, [_slow_request("QV"), _slow_request("QPE")]
            )
            assert [r["status"] for r in responses] == ["ok", "ok"]
            assert pool.respawns == 1
            assert len(pool.pids()) == 2
        finally:
            pool.shutdown()

    def test_abandons_batch_past_the_respawn_budget(self, monkeypatch):
        monkeypatch.setattr(procpool, "MAX_POOL_RESPAWNS", 0)
        pool = ProcessWorkerPool(1)
        pool.start()
        try:
            [response] = _run_and_kill(pool, [_slow_request("QV")])
            assert response["status"] == "error"
            assert response["kind"] == "simulate"
            assert response["error"]["type"] == "WorkerCrashed"
            # The broken pool was still rebuilt: later requests are served.
            assert pool.respawns == 1
            again = _run(pool, CompileRequest(DEVICE, "qaoa", 0))
            assert again["status"] == "ok"
        finally:
            pool.shutdown()

    def test_stats_counters_survive_a_respawn(self):
        pool = ProcessWorkerPool(1)
        pool.start()
        try:
            for seed in range(3):
                assert _run(pool, CompileRequest(DEVICE, "qaoa", seed))["status"] == "ok"
            before = pool.stats()
            assert before["requests"] == 3
            os.kill(pool.pids()[0], signal.SIGKILL)
            second = _run(pool, CompileRequest(DEVICE, "qv", 0))
            assert second["status"] == "ok"
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
