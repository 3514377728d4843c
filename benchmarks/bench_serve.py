"""Serving benchmarks: warm daemon round-trips vs cold per-request cost.

Boots one in-process ``repro serve`` daemon *per backend* (thread /
process) and times complete client round-trips (HTTP parse, queue,
compile, response) with warm caches — the steady state the daemon
exists for — plus a concurrent burst, and the per-request cold-process
baseline each request would pay without the daemon (fresh interpreter,
imports, topology build, cold plan cache).  The warm-request/cold
ratio is the serving layer's contribution; the thread-vs-process A/B on
the burst is the multicore story (on a 1-core box the two tie — the
process pool pays IPC without gaining parallelism).  Through
``scripts/dump_bench.py`` these land in the ``BENCH_<n>.json`` trend
snapshots.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.serve import ReproServer, ServeClient, ServeConfig, ServeError
from repro.serve.loadtest import cold_baseline

FULL = os.environ.get("REPRO_FULL", "0") == "1"

POINTS = [
    ("eagle", "qaoa"),
    ("eagle", "qv"),
]
if FULL:
    POINTS.append(("osprey", "qaoa"))

BACKENDS = ("thread", "process")

BURST_CLIENTS = 4
BURST_PER_CLIENT = 4


@pytest.fixture(scope="module", params=BACKENDS)
def daemon(request):
    server = ReproServer(
        ServeConfig(port=0, workers=2, backend=request.param)
    )
    thread = server.start_background()
    client = ServeClient(port=server.port)
    client.wait_ready()
    # Warm every benchmarked workload: plan cache + topology structures.
    for name, kind in POINTS:
        client.compile(name, kind)
    yield client
    try:
        client.shutdown()
    except ServeError:
        server.request_stop()
    client.close()
    thread.join(timeout=15.0)


@pytest.mark.parametrize("name,kind", POINTS, ids=[f"{n}-{k}" for n, k in POINTS])
def test_serve_warm_request(benchmark, daemon, name, kind):
    """One warm client round-trip (the acceptance p50 is this number)."""
    response = benchmark(lambda: daemon.compile(name, kind))
    assert response["status"] == "ok"


def test_serve_concurrent_burst(benchmark, daemon):
    """A 4-client burst of 16 warm eagle requests, wall-clock.

    The thread-vs-process fixture split makes this the CPU-bound
    throughput A/B: with ≥2 usable cores the process backend's burst
    should be strictly faster.
    """

    def burst():
        errors = []

        def body():
            mine = ServeClient(port=daemon.port)
            try:
                for _ in range(BURST_PER_CLIENT):
                    mine.compile("eagle", "qaoa")
            except ServeError as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                mine.close()

        pool = [threading.Thread(target=body) for _ in range(BURST_CLIENTS)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert errors == []

    benchmark.pedantic(burst, rounds=3, iterations=1)


def test_cold_process_request(benchmark):
    """What one eagle/qaoa request costs as a fresh one-shot process."""
    result = benchmark.pedantic(
        lambda: cold_baseline("eagle", "qaoa", samples=1),
        rounds=2,
        iterations=1,
    )
    assert result["samples"] == 1
