"""Fork-warm worker *processes* behind the ``repro serve`` front.

The thread backend keeps every cache in one process but is GIL-bound:
N worker threads compiling CPU-bound schedules time-slice one core.
This module is the ``--backend process`` alternative — the same asyncio
front (bounded queue, adaptive same-topology batcher) feeds batches to
N long-lived worker *processes* over per-worker pipes, so a multicore
box compiles N batches genuinely in parallel.

Warm start reuses the campaign runner's fork-warm machinery
(:func:`repro.campaigns.runner.prewarm_worker_parent` /
:func:`~repro.campaigns.runner.warm_worker`): the parent loads the pulse
libraries before forking, so fork-started workers inherit them — plus
whatever the process-wide ``SHARED_PLAN_CACHE`` already holds — at zero
cost; on spawn-start platforms a plan-cache snapshot ships through the
worker's startup message instead.  Each worker adopts
the bounded ``SHARED_PLAN_CACHE`` as its
:class:`~repro.serve.service.CompileService` plan cache, so a respawned
fork picks up any plans the parent had at fork time.

Fault tolerance mirrors the campaign runner's ``BrokenProcessPool``
recovery: a worker that dies (OOM, segfault, ``kill -9``) mid-batch is
detected by the broken pipe, a replacement is forked, and the in-flight
batch is re-dispatched — requests are pure functions of their payload,
so a re-run answers identically and the client never sees the death.
A batch that *keeps* killing workers (:data:`MAX_REDISPATCH` exhausted)
is answered with error responses rather than retried forever.

Telemetry rides home the way campaign cells do: each worker captures its
batch's spans/counters and ships the snapshot back with the responses;
the dispatcher merges it into the parent's process-wide trace, so
``repro stats`` shows one tree across all workers.
"""

from __future__ import annotations

import queue
import threading
from multiprocessing import Pipe, Process
from multiprocessing.connection import Connection

from repro.campaigns.runner import prewarm_worker_parent, warm_worker
from repro.pulses.library import METHODS
from repro.scheduling.plan_cache import SHARED_PLAN_CACHE
from repro.telemetry import capture, counter, merge_snapshot, span

#: Times a batch is re-dispatched after killing a worker before its
#: requests are answered with errors instead (mirrors the campaign
#: runner's MAX_POOL_RESPAWNS: progress beats retrying forever).
MAX_REDISPATCH = 2

#: Seconds to wait for a worker to exit cleanly at shutdown.
JOIN_TIMEOUT_S = 5.0


def _worker_main(
    conn: Connection,
    methods: tuple[str, ...],
    plan_snapshot: tuple | None,
    service_options: dict,
) -> None:
    """Worker-process body: warm up, then serve batches until EOF/None.

    One message in is a list of parsed protocol requests; one message
    out is ``{"responses", "stats", "telemetry"}`` with the responses in
    request order.  Workers never raise out of the loop — a handler
    failure is an error *response* (:meth:`CompileService.handle`), and
    a dead parent (EOF on the pipe) simply ends the process.
    """
    # Imported here so the import cost lands in the worker under spawn
    # starts (fork children inherit the parent's modules either way).
    from repro.serve.service import CompileService

    warm_worker(methods, plan_snapshot)
    service = CompileService(plan_cache=SHARED_PLAN_CACHE, **service_options)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        with capture() as cap:
            with span("serve.batch", group=f"x{len(message)}"):
                responses = [dict(service.handle(req)) for req in message]
        try:
            conn.send(
                {
                    "responses": responses,
                    "stats": service.stats(),
                    "telemetry": cap.snapshot(),
                }
            )
        except (BrokenPipeError, OSError):
            break


class _Worker:
    """One live worker process and the parent's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process: Process, conn: Connection):
        self.process = process
        self.conn = conn


class ProcessWorkerPool:
    """N fork-warm worker processes with checkout/respawn semantics.

    Thread-safe by design: the daemon's dispatcher threads each check
    out an idle worker (blocking while all are busy — the front's slot
    semaphore keeps dispatchers ≤ workers), run one batch over its pipe,
    and return it.  :meth:`start` must run before the daemon spawns any
    helper threads, so the forked children don't inherit a mid-flight
    thread state.
    """

    def __init__(
        self,
        workers: int,
        *,
        store: str | None = None,
        methods: tuple[str, ...] | None = None,
    ):
        self.size = max(1, workers)
        self._methods = tuple(methods if methods is not None else METHODS)
        self._service_options = {"store": store}
        self._plan_snapshot: tuple | None = None
        self._idle: queue.Queue[_Worker] = queue.Queue()
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._worker_stats: dict[int, dict] = {}
        self.respawns = 0
        self.started = False
        self.closed = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Prewarm the parent, then fork the initial workers."""
        self._plan_snapshot = prewarm_worker_parent(self._methods)
        for _ in range(self.size):
            self._spawn()
        self.started = True

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = Pipe()
        process = Process(
            target=_worker_main,
            args=(
                child_conn,
                self._methods,
                self._plan_snapshot,
                self._service_options,
            ),
            name="repro-serve-worker",
            daemon=True,
        )
        process.start()
        # The parent must drop its copy of the child's end, or a dead
        # worker's pipe never reaches EOF and death goes undetected.
        child_conn.close()
        worker = _Worker(process, parent_conn)
        with self._lock:
            self._workers.append(worker)
        self._idle.put(worker)
        return worker

    def _discard(self, worker: _Worker) -> None:
        """Retire a dead worker and fork its replacement."""
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1.0)
        with self._stats_lock:
            self._worker_stats.pop(worker.process.pid, None)
        if not self.closed:
            self.respawns += 1
            counter("serve.worker_respawn")
            self._spawn()

    def pids(self) -> list[int]:
        """Live worker process ids (tests kill these)."""
        with self._lock:
            return [w.process.pid for w in self._workers]

    def shutdown(self) -> None:
        """Stop accepting batches and reap every worker."""
        self.closed = True
        with self._lock:
            workers = list(self._workers)
            self._workers.clear()
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=JOIN_TIMEOUT_S)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    # -- dispatch -----------------------------------------------------------

    def _checkout(self) -> _Worker:
        while True:
            worker = self._idle.get()
            if worker.process.is_alive():
                return worker
            # Died while idle (e.g. killed between batches): replace it
            # and take the replacement (or another idle worker) instead.
            self._discard(worker)

    def run_batch(self, requests: list) -> list[dict]:
        """Serve one batch on a warm worker; respawn + re-dispatch on death.

        Called from a dispatcher thread.  Returns responses in request
        order; the worker's telemetry snapshot is merged into the parent
        trace before the responses are handed back, so a client never
        observes its answer while the trace still lacks the batch.
        """
        requests = list(requests)
        for _ in range(MAX_REDISPATCH + 1):
            worker = self._checkout()
            try:
                worker.conn.send(requests)
                reply = worker.conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                # The worker died under this batch: replace it and
                # re-dispatch — requests are pure, so the re-run is
                # answer-identical and the client never notices.
                self._discard(worker)
                continue
            self._idle.put(worker)
            merge_snapshot(reply.get("telemetry"))
            with self._stats_lock:
                self._worker_stats[worker.process.pid] = reply.get("stats") or {}
            return reply["responses"]
        counter("serve.batch_abandoned")
        message = (
            f"batch killed {MAX_REDISPATCH + 1} worker processes; giving up"
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
        """Aggregate of the latest per-worker service statistics.

        Workers report their stats with every batch reply, so this is
        the state as of each worker's most recent batch — no extra IPC
        round-trips, and ``/stats`` never blocks behind a busy worker.
        """
        with self._stats_lock:
            snapshots = list(self._worker_stats.values())
        totals = {"requests": 0, "errors": 0, "store_hits": 0}
        memo = ("hits", "misses", "evictions", "size")
        caches = {
            "plan_cache": dict.fromkeys(memo, 0),
            "prop_caches": dict.fromkeys(
                ("instances", "hits", "misses", "evictions"), 0
            ),
            "scale_context": dict.fromkeys(memo, 0),
            "scale_circuit": dict.fromkeys(memo, 0),
        }
        records = 0
        for snap in snapshots:
            for key in totals:
                totals[key] += snap.get(key, 0)
            for name, cache in caches.items():
                for key in cache:
                    cache[key] += (snap.get(name) or {}).get(key, 0)
            records += (snap.get("store") or {}).get("records", 0)
        totals.update(caches)
        totals["store"] = {
            "path": self._service_options.get("store"),
            "records": records,
        }
        totals["worker_processes"] = self.size
        totals["respawns"] = self.respawns
        return totals
