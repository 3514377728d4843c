"""Tests for the ``repro serve`` daemon, service, protocol and client.

The contract under test is the serving layer's reason to exist: answers
must be *fast because cached*, never *different because cached* — serve
responses are pinned bit-identical to one-shot CLI compiles through the
schedule digest (which mirrors the verify oracles' structural diff), and
simulate responses ride the exact campaign evaluation path.
"""

import socket
import threading
import time

import pytest

from repro import telemetry
from repro.campaigns.runner import supervised_evaluate
from repro.campaigns.spec import Cell, DeviceSpec
from repro.scheduling.plan_cache import SHARED_PLAN_CACHE, SuppressionPlanCache
from repro.scheduling.requirement import SuppressionRequirement
from repro.scheduling.scalebench import bench_circuit, run_point
from repro.scheduling.zzxsched import zzx_schedule
from repro.serve import (
    CompileRequest,
    CompileService,
    ProtocolError,
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
    SimulateRequest,
    parse_request,
    schedule_digest,
)
from repro.serve.loadtest import one_shot, percentile, run_load_test
from repro.serve.service import PROP_DOMAINS, SCALE_CACHE_SIZE
from repro.verify.generators import scale_topology
from repro.verify.oracles import diff_schedules

#: Small enough to keep the suite quick; real heavy-hex runs in CI smoke.
DEVICE = "grid:2x3"
SIM_CELL = Cell("QAOA", 4, "pert+zzx", device=DeviceSpec(rows=2, cols=3))


@pytest.fixture(autouse=True)
def _telemetry_off():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _schedule(device=DEVICE, circuit="qaoa", seed=0):
    topology = scale_topology(device)
    compiled = bench_circuit(topology, circuit, seed=seed)
    requirement = SuppressionRequirement.from_topology(topology)
    return zzx_schedule(
        compiled, topology, requirement, None, SuppressionPlanCache()
    )


class TestProtocol:
    def test_compile_roundtrip(self):
        request = parse_request(
            {"kind": "compile", "device": "eagle", "circuit": "qv", "seed": 3}
        )
        assert request == CompileRequest("eagle", "qv", 3)
        assert parse_request(request.payload()) == request

    def test_simulate_roundtrip(self):
        request = parse_request(SimulateRequest(SIM_CELL).payload())
        assert request.cell == SIM_CELL

    @pytest.mark.parametrize(
        "bad",
        [
            "not-an-object",
            {"kind": "launder"},
            {"kind": "compile", "circuit": "qaoa"},
            {"kind": "compile", "device": "eagle"},
            {"kind": "compile", "device": "eagle", "circuit": "qv", "seed": True},
            {"kind": "simulate"},
            {"kind": "simulate", "cell": {"benchmark": "nope"}},
        ],
    )
    def test_malformed_requests_rejected(self, bad):
        with pytest.raises(ProtocolError):
            parse_request(bad)

    def test_digest_equivalence_mirrors_oracle_diff(self):
        """Equal digests <=> empty diff_schedules: the serving layer's
        equivalence pin is exactly the verify oracle's identity."""
        a = _schedule()
        b = _schedule()
        assert diff_schedules("equiv", a, b) == []
        assert schedule_digest(a) == schedule_digest(b)
        c = _schedule(circuit="qv")
        assert diff_schedules("equiv", a, c) != []
        assert schedule_digest(a) != schedule_digest(c)


class TestPinnedDigests:
    """Literal digests, so an encoding change fails here, not only a
    self-inconsistent one (values from zzbench's expected serve outputs)."""

    @pytest.mark.parametrize(
        "seed, digest",
        [(0, "816bb08cf224fd663d0ac416"), (1, "7978abcf492b409cf3718982")],
    )
    def test_eagle_qaoa_digest(self, seed, digest):
        response = CompileService().handle(CompileRequest("eagle", "qaoa", seed))
        assert response["status"] == "ok"
        assert response["digest"] == digest
        assert response["num_layers"] == 279
        assert response["num_gates"] == 2600


class TestCompileService:
    def test_compile_matches_one_shot_cli_path(self):
        service = CompileService()
        response = service.handle(CompileRequest(DEVICE, "qaoa"))
        assert response["status"] == "ok"
        direct = one_shot(DEVICE, "qaoa")
        assert response["digest"] == direct["digest"]
        assert response["digest"] == schedule_digest(_schedule())
        bench = run_point(DEVICE, "qaoa", compare_uncached=False)
        assert response["digest"] == schedule_digest(bench.schedule)

    def test_repeat_compiles_hit_the_plan_cache(self):
        service = CompileService()
        # One plan cache per process: compile shares simulate's.
        assert service.plan_cache is SHARED_PLAN_CACHE
        first = service.handle(CompileRequest(DEVICE, "qaoa"))
        misses = service.plan_cache.misses
        again = service.handle(CompileRequest(DEVICE, "qaoa"))
        assert again["digest"] == first["digest"]
        assert service.plan_cache.misses == misses
        assert service.plan_cache.hits > 0

    def test_unknown_device_becomes_error_response(self):
        service = CompileService()
        response = service.handle(CompileRequest("tarantula", "qaoa"))
        assert response["status"] == "error"
        assert "tarantula" in response["error"]["message"]
        assert service.stats()["errors"] == 1

    def test_simulate_matches_campaign_evaluation(self):
        service = CompileService()
        response = service.handle(SimulateRequest(SIM_CELL))
        assert response["status"] == "ok"
        direct = supervised_evaluate(SIM_CELL)
        assert response["result"] == direct.result

    def test_repeat_simulates_served_from_store(self):
        service = CompileService()
        first = service.handle(SimulateRequest(SIM_CELL))
        assert first["cached"] is False
        again = service.handle(SimulateRequest(SIM_CELL))
        assert again["cached"] is True
        assert again["result"] == first["result"]
        assert service.stats()["store_hits"] == 1

    def test_process_backend_front_opens_no_store(self, tmp_path):
        """Process workers keep their own stores; the front must not load
        a --store file that nothing writes."""
        path = str(tmp_path / "store.jsonl")
        front = ReproServer(ServeConfig(backend="process", store=path))
        assert front.service is None
        threaded = ReproServer(ServeConfig(backend="thread", store=path))
        assert str(threaded.service.store.path) == path


class TestBoundedServeMemos:
    """Every serve-side memo is keyed by client input, so each is bounded."""

    def test_fresh_seed_circuits_evict_past_the_bound(self):
        service = CompileService()
        cache = service.scale_circuits
        assert cache.maxsize == SCALE_CACHE_SIZE == 16
        extra = 3
        for seed in range(cache.maxsize + extra):
            response = service.handle(CompileRequest(DEVICE, "qaoa", seed))
            assert response["status"] == "ok"
        assert len(cache) == cache.maxsize
        assert cache.evictions == extra
        assert service.stats()["scale_circuit"] == {
            "hits": 0,
            "misses": cache.maxsize + extra,
            "evictions": extra,
            "size": cache.maxsize,
        }

    def test_grid_device_names_stay_within_the_bound(self):
        service = CompileService()
        cache = service.scale_contexts
        names = [f"grid:2x{h}" for h in range(2, cache.maxsize + 5)]
        for name in names:
            assert service.handle(CompileRequest(name, "qaoa"))["status"] == "ok"
        assert len(cache) == cache.maxsize
        assert cache.evictions == len(names) - cache.maxsize
        assert service.stats()["scale_context"]["size"] == cache.maxsize

    def test_two_services_keep_independent_scale_memos(self):
        """One service's compile traffic never shows in another's stats."""
        busy, idle = CompileService(), CompileService()
        for seed in range(3):
            assert busy.handle(CompileRequest(DEVICE, "qaoa", seed))["status"] == "ok"
        assert busy.stats()["scale_circuit"]["misses"] == 3
        assert idle.stats()["scale_circuit"] == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0,
        }
        assert idle.stats()["scale_context"]["size"] == 0
        assert idle.handle(CompileRequest(DEVICE, "qaoa", 0))["status"] == "ok"
        assert idle.stats()["scale_circuit"]["misses"] == 1
        assert busy.stats()["scale_circuit"]["misses"] == 3

    def test_propagator_domains_stay_within_the_bound(self):
        service = CompileService()
        seeds = range(PROP_DOMAINS + 2)
        for seed in seeds:
            cell = Cell(
                "QAOA", 4, "pert+zzx", kind="density",
                device=DeviceSpec(rows=2, cols=2, seed=seed),
                t1_us=100.0, t2_us=100.0,
            )
            assert service.handle(SimulateRequest(cell))["status"] == "ok"
        prop = service.stats()["prop_caches"]
        assert prop["instances"] == PROP_DOMAINS
        assert prop["misses"] > 0


@pytest.fixture(scope="module")
def daemon():
    server = ReproServer(ServeConfig(port=0, workers=2))
    thread = server.start_background()
    client = ServeClient(port=server.port)
    client.wait_ready()
    yield server, client
    try:
        client.shutdown()
    except ServeError:
        server.request_stop()
    thread.join(timeout=10.0)


class TestDaemon:
    def test_health(self, daemon):
        _, client = daemon
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == 3
        assert health["backend"] == "thread"

    def test_served_compile_is_bit_identical_to_one_shot(self, daemon):
        _, client = daemon
        response = client.compile(DEVICE, "qaoa")
        assert response["status"] == "ok"
        assert response["digest"] == one_shot(DEVICE, "qaoa")["digest"]

    def test_served_simulate_matches_campaign_path(self, daemon):
        _, client = daemon
        response = client.simulate(SIM_CELL)
        assert response["status"] == "ok"
        assert response["result"] == supervised_evaluate(SIM_CELL).result

    def test_concurrent_mixed_requests_all_succeed(self, daemon):
        _, client = daemon
        expected = one_shot(DEVICE, "qaoa")["digest"]
        results, errors = [], []

        def body():
            mine = ServeClient(port=client.port)
            for _ in range(4):
                try:
                    results.append(mine.compile(DEVICE, "qaoa")["digest"])
                except ServeError as exc:  # pragma: no cover
                    errors.append(exc)

        pool = [threading.Thread(target=body) for _ in range(4)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert errors == []
        assert results == [expected] * 16

    def test_stats_endpoint(self, daemon):
        _, client = daemon
        client.compile(DEVICE, "qaoa")
        stats = client.stats()
        assert stats["requests"] >= 1
        assert set(stats["plan_cache"]) == {
            "hits", "misses", "evictions", "size",
        }
        for name in ("scale_context", "scale_circuit"):
            assert set(stats[name]) == {"hits", "misses", "evictions", "size"}
        assert stats["scale_circuit"]["size"] >= 1
        assert "queue_depth" in stats

    def test_unknown_path_is_404(self, daemon):
        _, client = daemon
        with pytest.raises(ServeError) as info:
            client._call("GET", "/nope")
        assert info.value.status == 404

    def test_bad_json_is_400(self, daemon):
        _, client = daemon
        with pytest.raises(ServeError) as info:
            client.request({"kind": "compile", "device": "eagle"})
        assert info.value.status == 400
        assert "circuit" in str(info.value)

    def test_handler_failure_is_500_not_silent_200(self, daemon):
        """A failed compile must *raise* at the client — an error payload
        answered with 200 would read as success to status-line callers."""
        _, client = daemon
        with pytest.raises(ServeError) as info:
            client.compile("tarantula", "qaoa")
        assert info.value.status == 500
        assert info.value.payload["status"] == "error"
        assert "tarantula" in str(info.value)

    def test_keep_alive_reuses_one_connection(self, daemon):
        """A client session of N requests costs one daemon connection."""
        server, _ = daemon
        before = server.connections
        mine = ServeClient(port=server.port)
        try:
            first = mine.compile(DEVICE, "qaoa")
            again = mine.compile(DEVICE, "qv")
            stats = mine.stats()
        finally:
            mine.close()
        assert first["status"] == "ok" and again["status"] == "ok"
        assert stats["connections"] == before + 1


def _raw_exchange(port: int, blob: bytes) -> bytes:
    """Send raw bytes, return everything the daemon answers."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(blob)
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


class TestMalformedHTTP:
    """Junk input earns a diagnosable status line, not a silent close."""

    def test_garbage_request_line_is_400(self, daemon):
        server, _ = daemon
        answer = _raw_exchange(server.port, b"GARBAGE\r\n\r\n")
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in answer
        assert b"BadRequest" in answer

    def test_non_integer_content_length_is_400(self, daemon):
        server, _ = daemon
        answer = _raw_exchange(
            server.port,
            b"POST /request HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        )
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b"banana" in answer

    def test_oversized_body_is_413(self, daemon):
        server, _ = daemon
        answer = _raw_exchange(
            server.port,
            b"POST /request HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
        )
        assert answer.startswith(b"HTTP/1.1 413 ")

    def test_http_10_connection_closes_after_answer(self, daemon):
        """_raw_exchange reads to EOF, so an answer proves the daemon
        honored HTTP/1.0's default close instead of keeping alive."""
        server, _ = daemon
        answer = _raw_exchange(
            server.port, b"GET /health HTTP/1.0\r\n\r\n"
        )
        assert answer.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in answer


class TestClient:
    def test_wait_ready_chains_the_underlying_error(self):
        """The timeout ServeError must carry the real cause (`from exc`),
        not discard it — 'not ready' alone is undebuggable."""
        client = ServeClient(port=1, timeout_s=0.2)
        with pytest.raises(ServeError) as info:
            client.wait_ready(timeout_s=0.3)
        assert "not ready" in str(info.value)
        assert info.value.__cause__ is not None

    def test_stale_connection_is_retried_once(self, daemon):
        """A kept-alive connection the daemon dropped must not surface."""
        server, _ = daemon
        mine = ServeClient(port=server.port)
        try:
            assert mine.health()["status"] == "ok"
            # Sabotage the cached connection; the next call must recover.
            mine._conn.sock.close()
            assert mine.compile(DEVICE, "qaoa")["status"] == "ok"
        finally:
            mine.close()


class _SlowService:
    """Stub service: fixed handling delay, no real compilation."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.handled = 0

    def handle(self, request) -> dict:
        time.sleep(self.delay_s)
        self.handled += 1
        return {"status": "ok"}

    def stats(self) -> dict:
        return {"requests": self.handled}


class _RaisingService(_SlowService):
    """Stub service whose handler raises instead of answering."""

    def handle(self, request) -> dict:
        raise RuntimeError("handler bug")


class TestOverload:
    def test_full_queue_answers_503_and_recovers(self):
        config = ServeConfig(port=0, queue_size=2, workers=1)
        server = ReproServer(config, service=_SlowService(0.15))
        thread = server.start_background()
        client = ServeClient(port=server.port)
        client.wait_ready()
        try:
            outcomes = []
            lock = threading.Lock()

            def body():
                mine = ServeClient(port=server.port)
                try:
                    mine.compile("eagle", "qaoa")
                    status = 200
                except ServeError as exc:
                    status = exc.status
                with lock:
                    outcomes.append(status)

            pool = [threading.Thread(target=body) for _ in range(12)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
            assert sorted(set(outcomes)) in ([200, 503], [503, 200])
            assert outcomes.count(503) >= 1, "bounded queue never overflowed"
            assert outcomes.count(200) >= 1
            # Overload must shed load, not wedge the daemon.
            assert client.compile("eagle", "qaoa")["status"] == "ok"
        finally:
            client.shutdown()
            thread.join(timeout=10.0)


class TestHandlerBug:
    def test_raising_handler_is_500_and_keeps_its_slot(self):
        """A handler that raises answers 500; its worker slot lives on."""
        server = ReproServer(
            ServeConfig(port=0, workers=1), service=_RaisingService(0.0)
        )
        thread = server.start_background()
        client = ServeClient(port=server.port, timeout_s=10.0)
        try:
            client.wait_ready()
            for _ in range(2):
                with pytest.raises(ServeError) as info:
                    client.compile("eagle", "qaoa")
                assert info.value.status == 500
                assert info.value.payload["error"]["type"] == "InternalError"
        finally:
            client.shutdown()
            client.close()
            thread.join(timeout=15.0)


class TestShutdownDrain:
    def test_queued_requests_fail_with_503_not_fake_200(self):
        """Requests drained at shutdown answer 503/Shutdown — a client
        must never mistake an unserved request for a success."""
        config = ServeConfig(port=0, workers=1)
        server = ReproServer(config, service=_SlowService(0.4))
        thread = server.start_background()
        outcomes = []
        lock = threading.Lock()

        def body():
            mine = ServeClient(port=server.port)
            try:
                response = mine.compile("eagle", "qaoa")
                status, payload = 200, response
            except ServeError as exc:
                status, payload = exc.status, exc.payload
            finally:
                mine.close()
            with lock:
                outcomes.append((status, payload))

        ServeClient(port=server.port).wait_ready()
        pool = [threading.Thread(target=body) for _ in range(4)]
        for t in pool:
            t.start()
        time.sleep(0.15)  # first request in flight, rest queued
        server.request_stop()
        for t in pool:
            t.join(timeout=15.0)
        thread.join(timeout=15.0)
        assert len(outcomes) == 4
        drained = [p for s, p in outcomes if s == 503]
        assert drained, "no queued request saw the shutdown drain"
        for payload in drained:
            assert payload["error"]["type"] == "Shutdown"
        # The in-flight request still completed and answered 200.
        assert any(s == 200 for s, _ in outcomes)

    def test_request_after_stop_answers_503(self):
        """A kept-alive connection outlives the listener; a request sent
        on it after stop must be refused, not left hanging."""
        server = ReproServer(
            ServeConfig(port=0, workers=1), service=_SlowService(0.0)
        )
        thread = server.start_background()
        client = ServeClient(port=server.port)
        try:
            client.wait_ready()
            server.request_stop()
            time.sleep(0.2)  # stop is set; the connection is still open
            with pytest.raises(ServeError) as info:
                client.compile("eagle", "qaoa")
            assert info.value.status == 503
            assert info.value.payload["error"]["type"] == "Shutdown"
        finally:
            client.close()
            thread.join(timeout=15.0)

    def test_idle_connection_does_not_delay_shutdown(self, capfd, caplog):
        """A kept-alive connection idle at stop is closed, not waited on
        for seconds and then cancelled with a traceback."""
        server = ReproServer(
            ServeConfig(port=0, workers=1), service=_SlowService(0.0)
        )
        thread = server.start_background()
        idle = ServeClient(port=server.port)
        try:
            idle.wait_ready()  # leaves one kept-alive connection idle
            start = time.perf_counter()
            ServeClient(port=server.port).shutdown()
            thread.join(timeout=15.0)
            elapsed = time.perf_counter() - start
        finally:
            idle.close()
        assert not thread.is_alive()
        assert elapsed < 1.0
        logged = capfd.readouterr().err + caplog.text
        assert "Exception in callback" not in logged


class TestLoadTest:
    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 2.5
        assert percentile([7.0], 0.9) == 7.0

    def test_harness_end_to_end(self):
        report = run_load_test(
            requests=8,
            clients=2,
            devices=(DEVICE,),
            circuits=("qaoa", "qv"),
            config=ServeConfig(port=0, workers=2),
            check=True,
        )
        assert report["ok"] == 8
        assert report["errors"] == []
        assert report["equivalence"]["mismatches"] == []
        assert report["latency"]["p50_s"] > 0
        assert report["server"]["requests"] >= 10  # 2 warmup + 8 timed
