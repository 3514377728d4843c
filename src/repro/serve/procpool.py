"""Fork-warm worker *processes* behind the ``repro serve`` front.

The thread backend keeps every cache in one process but is GIL-bound:
N worker threads compiling CPU-bound schedules time-slice one core.
This module is the ``--backend process`` alternative: the same asyncio
front (bounded queue, adaptive same-topology batcher) hands each batch
to the campaign runner's :func:`~repro.campaigns.runner.warm_pool`, so
N batches compile in parallel on the pool, warm start and respawn
policy that campaign sweeps use.  Each worker serves batches through
one :class:`~repro.serve.service.CompileService` whose plan cache is the
fork-inherited ``SHARED_PLAN_CACHE``.

A worker that dies (OOM, segfault, ``kill -9``) breaks the *whole* pool:
every batch in flight fails with ``BrokenProcessPool``.  The first
dispatcher to see the break rebuilds the pool, once per break, and every
failed batch re-runs on the new one.  Requests are pure, so re-runs
answer identically and clients never see the death.  A batch that meets
more than :data:`MAX_POOL_RESPAWNS` breaks is answered with
``WorkerCrashed`` errors instead.

Each worker ships its batch's telemetry snapshot back with the
responses; the dispatcher merges it into the parent's trace, so ``repro
stats`` shows one tree across all workers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures.process import BrokenProcessPool

from repro.campaigns.runner import MAX_POOL_RESPAWNS, warm_pool
from repro.pulses.library import METHODS
from repro.scheduling.plan_cache import SHARED_PLAN_CACHE
from repro.serve.service import CompileService
from repro.telemetry import capture, counter, merge_snapshot, span

#: This worker process's request engine, built by its first batch.
_SERVICE: CompileService | None = None


def _serve_batch(requests: list) -> dict:
    """Pool task: serve one batch in this worker, responses in order.

    Never raises for a request: a handler failure is an error response
    (:meth:`CompileService.handle`).
    """
    global _SERVICE
    if _SERVICE is None:
        _SERVICE = CompileService(plan_cache=SHARED_PLAN_CACHE)
    with capture() as cap:
        with span("serve.batch", group=f"x{len(requests)}"):
            responses = [dict(_SERVICE.handle(req)) for req in requests]
    return {
        "pid": os.getpid(),
        "responses": responses,
        "stats": _SERVICE.stats(),
        "telemetry": cap.snapshot(),
    }


def _add_leaves(total: dict, snapshot: dict) -> None:
    """Add ``snapshot``'s numeric leaves into ``total``, recursively.

    A non-numeric leaf (a store path) keeps the first value seen.
    """
    for key, value in snapshot.items():
        if isinstance(value, dict):
            _add_leaves(total.setdefault(key, {}), value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            total[key] = total.get(key, 0) + value
        else:
            total.setdefault(key, value)


class ProcessWorkerPool:
    """The serve process backend: batches run on one :func:`warm_pool`.

    Thread-safe by design: the daemon's dispatcher threads each submit
    one batch and block on its reply (the front's slot semaphore keeps
    dispatchers ≤ workers).  :meth:`start` must run before the daemon
    spawns any helper threads, so the forked children don't inherit a
    mid-flight thread state.
    """

    def __init__(self, workers: int):
        self.size = max(1, workers)
        self._pool = None
        self._lock = threading.Lock()
        # Latest stats per live worker pid, plus the folded sum of every
        # retired worker's, so totals never go backwards on a rebuild.
        self._worker_stats: dict[int, dict] = {}
        self._retired: dict = {}
        self.respawns = 0
        self.closed = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Fork the workers now, before the daemon has helper threads.

        Under fork the first submit launches every worker; the empty
        batch also seeds :meth:`stats` with every key.
        """
        self._pool = warm_pool(self.size, METHODS)
        self.run_batch([])

    def _rebuild(self, broken) -> None:
        """Replace the ``broken`` pool, unless another thread already did."""
        with self._lock:
            if self._pool is not broken or self.closed:
                return
            broken.shutdown(wait=False, cancel_futures=True)
            self._pool = warm_pool(self.size, METHODS)
            self.respawns += 1
            for snapshot in self._worker_stats.values():
                _add_leaves(self._retired, snapshot)
            self._worker_stats.clear()
        counter("serve.worker_respawn")

    def pids(self) -> list[int]:
        """Worker process ids of the current pool (tests kill these)."""
        with self._lock:
            return list(self._pool._processes or ()) if self._pool else []

    def shutdown(self) -> None:
        """Stop accepting batches and reap every worker."""
        with self._lock:
            self.closed = True
            pool = self._pool
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- dispatch -----------------------------------------------------------

    def run_batch(self, requests: list) -> list[dict]:
        """Serve one batch on a warm worker; rebuild + re-run on a break.

        Called from a dispatcher thread.  Returns responses in request
        order; the worker's telemetry snapshot is merged into the parent
        trace before the responses are handed back, so a client never
        observes its answer while the trace still lacks the batch.
        """
        requests = list(requests)
        for _ in range(MAX_POOL_RESPAWNS + 1):
            pool = self._pool
            try:
                reply = pool.submit(_serve_batch, requests).result()
            except BrokenProcessPool:
                # A worker died (maybe under a sibling batch): requests
                # are pure, so re-running on a fresh pool is
                # answer-identical and the client never notices.
                self._rebuild(pool)
                continue
            merge_snapshot(reply["telemetry"])
            with self._lock:
                # A reply that raced a rebuild is from a retired pool.
                if pool is self._pool:
                    self._worker_stats[reply["pid"]] = reply["stats"]
            return reply["responses"]
        counter("serve.batch_abandoned")
        message = (
            f"batch broke the worker pool {MAX_POOL_RESPAWNS + 1} times; "
            "giving up"
        )
        return [
            {
                "status": "error",
                "kind": getattr(request, "kind", "unknown"),
                "error": {"type": "WorkerCrashed", "message": message},
            }
            for request in requests
        ]

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Every worker's latest service statistics, summed leaf by leaf.

        Workers report their stats with every batch reply, so this is
        the state as of each worker's most recent batch — no extra IPC
        round-trips, and ``/stats`` never blocks behind a busy worker.
        Workers retired by a rebuild stay in the sum, so counters never
        go backwards (and ``size`` leaves include their dead caches).
        """
        totals: dict = {}
        with self._lock:
            for snapshot in (self._retired, *self._worker_stats.values()):
                _add_leaves(totals, snapshot)
        totals["worker_processes"] = self.size
        totals["respawns"] = self.respawns
        return totals
