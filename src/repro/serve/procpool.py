"""Fork-warm worker *processes* behind the ``repro serve`` front.

The thread backend keeps every cache in one process but is GIL-bound:
N worker threads compiling CPU-bound schedules time-slice one core.
This module is the ``--backend process`` alternative: each of the
daemon's worker slots awaits :meth:`ProcessWorkerPool.run`, which
submits one request to the campaign runner's
:func:`~repro.campaigns.runner.warm_pool`, so N requests compile in
parallel on the pool, warm start and respawn policy that campaign
sweeps use.  Each worker serves requests through one
:class:`~repro.serve.service.CompileService`, which schedules through
the fork-inherited ``SHARED_PLAN_CACHE``.

A worker that dies (OOM, segfault, ``kill -9``) breaks the *whole* pool:
every request in flight fails with ``BrokenProcessPool``.  The first
slot to see the break rebuilds the pool, once per break, and every
failed request re-runs on the new one.  Requests are pure, so re-runs
answer identically and clients never see the death.  A request that
meets more than :data:`MAX_POOL_RESPAWNS` breaks is answered with a
``WorkerCrashed`` error instead.

Each worker ships the request's telemetry snapshot back with the
response; the event loop merges it into the parent's trace, so ``repro
stats`` shows one tree across all workers.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures.process import BrokenProcessPool

from repro.campaigns.runner import MAX_POOL_RESPAWNS, warm_pool
from repro.pulses.library import METHODS
from repro.serve.service import CompileService
from repro.telemetry import capture, counter, merge_snapshot

#: This worker process's request engine, built by its first task.
_SERVICE: CompileService | None = None


def _serve(request) -> dict:
    """Pool task: serve one request in this worker (``None`` only warms).

    Never raises for a request: a handler failure is an error response
    (:meth:`CompileService.handle`).
    """
    global _SERVICE
    if _SERVICE is None:
        _SERVICE = CompileService()
    with capture() as cap:
        response = None if request is None else dict(_SERVICE.handle(request))
    return {
        "pid": os.getpid(),
        "response": response,
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
    """The serve process backend: requests run on one :func:`warm_pool`.

    Only the daemon's event loop calls :meth:`run`, so no state here
    needs a lock.  :meth:`start` must run before the daemon spawns any
    helper threads, so the forked children don't inherit a mid-flight
    thread state.
    """

    def __init__(self, workers: int):
        self.size = max(1, workers)
        self._pool = None
        # Latest stats per live worker pid, plus the folded sum of every
        # retired worker's, so totals never go backwards on a rebuild.
        self._worker_stats: dict[int, dict] = {}
        self._retired: dict = {}
        self.respawns = 0
        self.closed = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Fork the workers now, before the daemon has helper threads.

        Under fork the first submit launches every worker; the warm-up
        task also seeds :meth:`stats` with every key.
        """
        self._pool = warm_pool(self.size, METHODS)
        self._record(self._pool, self._pool.submit(_serve, None).result())

    def _rebuild(self, broken) -> None:
        """Replace the ``broken`` pool, unless a sibling request already did."""
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
        return list(self._pool._processes or ()) if self._pool else []

    def shutdown(self) -> None:
        """Stop accepting requests and reap every worker."""
        self.closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)

    # -- dispatch -----------------------------------------------------------

    def _record(self, pool, reply: dict) -> dict | None:
        """Merge a worker reply's telemetry and stats; return its response."""
        merge_snapshot(reply["telemetry"])
        # A reply that raced a rebuild is from a retired pool.
        if pool is self._pool:
            self._worker_stats[reply["pid"]] = reply["stats"]
        return reply["response"]

    async def run(self, request) -> dict:
        """Serve one request on a warm worker; rebuild + re-run on a break.

        The worker's telemetry snapshot is merged into the parent trace
        before the response is returned, so a client never observes its
        answer while the trace still lacks the request.
        """
        for _ in range(MAX_POOL_RESPAWNS + 1):
            pool = self._pool
            try:
                reply = await asyncio.wrap_future(pool.submit(_serve, request))
            except BrokenProcessPool:
                # A worker died (maybe under a sibling request): requests
                # are pure, so re-running on a fresh pool is
                # answer-identical and the client never notices.
                self._rebuild(pool)
                continue
            return self._record(pool, reply)
        counter("serve.request_abandoned")
        return {
            "status": "error",
            "kind": request.kind,
            "error": {
                "type": "WorkerCrashed",
                "message": f"request broke the worker pool "
                f"{MAX_POOL_RESPAWNS + 1} times; giving up",
            },
        }

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Every worker's latest service statistics, summed leaf by leaf.

        Workers report their stats with every reply, so this is the
        state as of each worker's most recent request — no extra IPC
        round-trips, and ``/stats`` never blocks behind a busy worker.
        Workers retired by a rebuild stay in the sum, so counters never
        go backwards (and ``size`` leaves include their dead caches).
        """
        totals: dict = {}
        for snapshot in (self._retired, *self._worker_stats.values()):
            _add_leaves(totals, snapshot)
        totals["worker_processes"] = self.size
        totals["respawns"] = self.respawns
        return totals
