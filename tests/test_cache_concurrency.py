"""Concurrency hammers for the warm caches and the telemetry collector.

The serve daemon calls every cache from a thread pool, so the contracts
under test are the multi-threaded ones: N threads x M keys must compute
each key exactly once (waiters block on the in-flight computation and
count as hits), statistics must stay consistent (no lost updates), and
FIFO eviction must respect the size bound.  The hammers target
:class:`~repro.memo.MemoCache`, the one mechanism behind every cache;
the plan and propagator adapters keep their own exactly-once or FIFO
hammers as end-to-end checks of the wiring.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.device.presets import grid
from repro.memo import MemoCache, memoized
from repro.runtime.backends import LayerPropagatorCache
from repro.scheduling import plan_cache as plan_cache_mod
from repro.scheduling.plan_cache import SuppressionPlanCache

THREADS = 8
ROUNDS = 5


@pytest.fixture(autouse=True)
def _telemetry_off():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _hammer(worker, threads=THREADS):
    """Run ``worker(i)`` on N threads with a common start barrier.

    A short switch interval makes the interpreter preempt threads often,
    so a check-then-act race would show up as a lost update.
    """
    barrier = threading.Barrier(threads)
    errors = []

    def body(i):
        barrier.wait()
        try:
            worker(i)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    pool = [threading.Thread(target=body, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool), "a hammer thread hung"
    assert errors == []


class TestMemoCacheConcurrency:
    def test_each_key_computed_exactly_once(self):
        cache = MemoCache("hammer")
        builds = []
        lock = threading.Lock()

        def build_for(key):
            def build():
                with lock:
                    builds.append(key)
                time.sleep(0.01)  # widen the window for duplicate builds
                return [key]

            return build

        keys = list(range(4))
        results: dict[int, list] = {key: [] for key in keys}

        def worker(i):
            for _ in range(ROUNDS):
                for key in keys:
                    value = cache.get(key, build_for(key))
                    with lock:
                        results[key].append(value)

        _hammer(worker)
        total = THREADS * ROUNDS * len(keys)
        assert sorted(builds) == keys, f"a key was built twice: {builds}"
        assert cache.misses == len(keys)
        assert cache.hits == total - len(keys)
        assert cache.evictions == 0
        # Every caller of one key got the identical object.
        for key in keys:
            assert len({id(v) for v in results[key]}) == 1
            assert results[key][0] == [key]

    def test_bounded_cache_evicts_fifo_under_threads(self):
        cache = MemoCache("hammer", maxsize=3)
        keys = list(range(6))

        def worker(i):
            for key in keys:
                cache.get(key, lambda key=key: key * 10)

        _hammer(worker)
        assert len(cache.export()) == 3
        assert cache.evictions >= len(keys) - 3
        stats = cache.stats
        assert stats["size"] == 3
        assert stats["hits"] + stats["misses"] == THREADS * len(keys)

    def test_absorb_respects_bound(self):
        donor = MemoCache("donor")
        for key in range(6):
            donor.get(key, lambda key=key: key * 10)
        bounded = MemoCache("bounded", maxsize=2)
        assert bounded.absorb(donor.export()) == 6
        assert bounded.export() == ((4, 40), (5, 50))  # FIFO keeps the newest
        assert bounded.evictions == 4
        assert bounded.hits == bounded.misses == 0
        # Existing entries win and are not re-counted.
        assert bounded.absorb(donor.export()[-1:]) == 0

    def test_failed_build_caches_nothing_and_waiters_retry(self):
        cache = MemoCache("hammer")
        attempts = []
        lock = threading.Lock()

        def build():
            with lock:
                attempts.append(1)
                first = len(attempts) == 1
            time.sleep(0.01)
            if first:
                raise RuntimeError("transient")
            return "built"

        values = []

        def worker(i):
            try:
                values.append(cache.get("key", build))
            except RuntimeError:
                values.append("raised")

        _hammer(worker)
        assert values.count("raised") == 1
        assert values.count("built") == THREADS - 1
        assert len(attempts) == 2  # the failure, then exactly one rebuild
        assert len(cache) == 1

    def test_memoized_exposes_its_cache(self):
        calls = []

        @memoized("hammer.fn", maxsize=2)
        def square(x):
            calls.append(x)
            return x * x

        assert [square(2), square(2), square(3), square(4)] == [4, 4, 9, 16]
        assert calls == [2, 3, 4]
        assert square.cache.stats == {
            "hits": 1, "misses": 3, "evictions": 1, "size": 2,
        }
        square.cache.clear()
        assert len(square.cache) == 0 and square.cache.hits == 0


class TestPlanCacheConcurrency:
    def test_each_key_computed_exactly_once(self, monkeypatch):
        topology = grid(3, 4)
        computed = []
        real = plan_cache_mod.alpha_optimal_suppression

        def counting(topo, gate_qubits, alpha, top_k):
            computed.append((frozenset(gate_qubits), alpha))
            time.sleep(0.01)  # widen the window for duplicate computes
            return real(topo, gate_qubits, alpha=alpha, top_k=top_k)

        monkeypatch.setattr(
            plan_cache_mod, "alpha_optimal_suppression", counting
        )
        cache = SuppressionPlanCache()
        alphas = tuple(0.5 + 0.1 * k for k in range(4))
        results: dict[tuple, list] = {a: [] for a in alphas}
        lock = threading.Lock()

        def worker(i):
            for _ in range(ROUNDS):
                for alpha in alphas:
                    plan = cache.plan(topology, (0, 1), alpha=alpha)
                    with lock:
                        results[alpha].append(plan)

        _hammer(worker)
        total = THREADS * ROUNDS * len(alphas)
        assert len(computed) == len(alphas), (
            f"expected one compute per key, got {len(computed)}: {computed}"
        )
        assert cache.misses == len(alphas)
        assert cache.hits == total - len(alphas)
        assert cache.evictions == 0
        # Every caller of one key got the identical plan object.
        for alpha in alphas:
            assert len({id(p) for p in results[alpha]}) == 1

    def test_bounded_cache_evicts_fifo_under_threads(self):
        topology = grid(2, 3)
        cache = SuppressionPlanCache(maxsize=3)
        qubit_sets = [(q,) for q in range(6)]

        def worker(i):
            for qubits in qubit_sets:
                cache.plan(topology, qubits)

        _hammer(worker)
        assert len(cache.export()) == 3
        assert cache.evictions >= len(qubit_sets) - 3
        stats = cache.stats
        assert stats["size"] == 3
        assert stats["hits"] + stats["misses"] == THREADS * len(qubit_sets)


class TestPropagatorCacheConcurrency:
    def test_bounded_maps_evict_fifo_under_threads(self):
        cache = LayerPropagatorCache(maxsize=2)
        keys = [(k, 1.0, 0.01) for k in range(5)]

        def worker(i):
            for key in keys:
                cache.unitary(key, lambda key=key: np.eye(2) * key[0])

        _hammer(worker)
        stats = cache.stats
        assert stats["size"] == 2
        assert stats["evictions"] >= len(keys) - 2
        assert stats["hits"] + stats["misses"] == THREADS * len(keys)

    def test_drives_and_unitary_maps_are_independent(self):
        cache = LayerPropagatorCache(maxsize=2)
        key = (7, 1.0, 0.01)
        drives = cache.drives(key, lambda: [np.zeros(3)])
        unitary = cache.unitary(key, lambda: np.eye(2))
        assert isinstance(drives, tuple)
        assert cache.drives(key, lambda: pytest.fail("rebuilt")) is drives
        assert cache.unitary(key, lambda: pytest.fail("rebuilt")) is unitary
        # Each map has its own bound: filling the unitaries evicts none
        # of the drive lists.
        for k in range(3):
            cache.unitary((k, 1.0, 0.01), lambda: np.eye(2))
        assert cache.drives(key, lambda: pytest.fail("rebuilt")) is drives
        assert cache.stats["size"] == 3
        assert cache.evictions == 2


class TestTelemetryConcurrency:
    def test_counters_and_spans_lose_no_updates(self):
        telemetry.enable()
        per_thread = 200

        def worker(i):
            for _ in range(per_thread):
                telemetry.counter("hammer.count")
                with telemetry.span("hammer.span", group=f"t{i}"):
                    pass
                telemetry.gauge_max("hammer.max", i)

        _hammer(worker)
        snap = telemetry.snapshot()
        assert snap["counters"]["hammer.count"] == THREADS * per_thread
        span_calls = sum(
            s["count"] for s in snap["spans"] if s["path"] == "hammer.span"
        )
        assert span_calls == THREADS * per_thread
        assert snap["gauges"]["hammer.max"] == THREADS - 1

    def test_nested_spans_stay_per_thread(self):
        telemetry.enable()

        def worker(i):
            for _ in range(50):
                with telemetry.span("outer"):
                    with telemetry.span("inner"):
                        pass

        _hammer(worker, threads=4)
        paths = {s["path"] for s in telemetry.snapshot()["spans"]}
        # Span nesting is thread-local: no cross-thread path pollution
        # like outer/outer or outer/inner/inner can appear.
        assert paths == {"outer", "outer/inner"}
