"""The ``repro serve`` daemon: asyncio front, thread- or process-pool back.

Architecture (one front, two interchangeable backends):

- an :mod:`asyncio` server accepts local HTTP/1.1 connections — now with
  **keep-alive**: a client reuses one connection across a session
  instead of paying a reconnect per request — and parses JSON requests
  (``POST /request``), plus ``GET /health``, ``GET /stats`` and ``POST
  /shutdown`` control endpoints;
- accepted requests enter a **bounded** queue — when it is full the
  daemon answers ``503 {"status": "overloaded"}`` immediately instead of
  buffering unboundedly;
- a single batcher coroutine drains the queue adaptively — whatever is
  already queued ships at once when a worker is free, and while all
  workers are busy it keeps coalescing up to ``batch_window_s`` more —
  groups what it drained by topology fingerprint
  (:meth:`CompileService.batch_key`) and hands each group to the
  configured backend:

  - ``backend="thread"`` (default): a thread pool calling the shared
    thread-safe :class:`CompileService` — one process, caches shared by
    construction, but GIL-bound for CPU-heavy compiles;
  - ``backend="process"``: dispatcher threads submit each batch to
    :class:`~repro.serve.procpool.ProcessWorkerPool`, which runs on the
    campaign runner's fork-warm :func:`~repro.campaigns.runner.warm_pool`
    — true multicore compiles; a dead worker breaks the pool, which is
    rebuilt whole, and every batch in flight re-runs on the new pool.

Failures are *visible*: a handler error payload rides a non-200 status
(500, or 503 for shutdown-drained requests), and malformed HTTP input is
answered with a diagnosable ``400``/``413`` before the connection
closes — never a silent reset.

Queue wait (enqueue → batch start) is observed as ``serve.queue_wait``
so ``repro stats`` shows where latency goes under load.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.serve.procpool import ProcessWorkerPool
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError, parse_request
from repro.serve.service import CompileService
from repro.telemetry import counter, gauge_max, observe, span

logger = logging.getLogger(__name__)

#: Default port; chosen outside the common registered ranges.
DEFAULT_PORT = 8177

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Cap on request bodies; a local JSON request has no business being larger.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: The serve worker backends (``ServeConfig.backend``).
BACKENDS = ("thread", "process")


class _BadRequest(Exception):
    """Malformed HTTP input, answered with a real status before closing."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class ServeConfig:
    """Tunables of one daemon instance (all have serving defaults)."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    #: Bounded request queue; overflow answers 503 instead of buffering.
    queue_size: int = 256
    #: Extra seconds the batcher waits for company while all workers are
    #: busy; an idle daemon always dispatches immediately.
    batch_window_s: float = 0.01
    #: Hard cap on requests per batch.
    max_batch: int = 32
    #: Worker threads (thread backend) or worker processes (process
    #: backend) executing batches.
    workers: int = 4
    #: ``"thread"`` (one process, GIL-shared caches) or ``"process"``
    #: (fork-warm worker processes for multicore scaling).
    backend: str = "thread"
    #: Optional ResultStore path for simulate requests (thread backend
    #: only — process workers keep per-worker in-memory stores).
    store: str | None = None


@dataclass
class _Pending:
    """One queued request, waiting for a batch slot."""

    request: object
    future: asyncio.Future
    enqueued: float = field(default_factory=time.perf_counter)


def _status_for(response: dict) -> int:
    """HTTP status for a handler response: failures must be visible.

    ``status: "error"`` payloads ride a 500 — except requests drained at
    shutdown, whose ``Shutdown`` error is a 503 (retry elsewhere/later).
    An error answered with 200 would make every caller re-inspect the
    payload to notice its compile failed; non-200 makes
    :class:`~repro.serve.client.ServeClient` raise instead.
    """
    if response.get("status") == "ok":
        return 200
    if (response.get("error") or {}).get("type") == "Shutdown":
        return 503
    return 500


class ReproServer:
    """A runnable serve daemon; blocking ``run()`` or background thread."""

    def __init__(self, config: ServeConfig | None = None, service: CompileService | None = None):
        self.config = config or ServeConfig()
        if self.config.backend not in BACKENDS:
            raise ValueError(
                f"unknown serve backend {self.config.backend!r}; "
                f"known: {', '.join(BACKENDS)}"
            )
        # Under the process backend the front service only resolves batch
        # keys and counts batches; workers keep their own in-memory stores,
        # so a --store file opened here would never be written.
        store = None if self.config.backend == "process" else self.config.store
        self.service = service or CompileService(store=store)
        #: Actual bound port, available once ``started`` is set (lets
        #: tests and the load harness bind port 0 for an ephemeral port).
        self.port: int | None = None
        self.started = threading.Event()
        #: The worker pool of the process backend (None under thread).
        self.procpool = None
        #: Connections accepted since start (keep-alive reuse shows up
        #: as requests outnumbering connections in /stats).
        self.connections = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._queue: asyncio.Queue | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._inflight: set = set()

    # -- lifecycle ----------------------------------------------------------

    def run(self) -> None:
        """Serve until /shutdown or KeyboardInterrupt (blocking)."""
        try:
            asyncio.run(self._amain())
        except KeyboardInterrupt:
            pass

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread; returns once the port is bound."""
        thread = threading.Thread(target=self.run, name="repro-serve", daemon=True)
        thread.start()
        if not self.started.wait(timeout=30.0):
            raise RuntimeError("serve daemon failed to start within 30s")
        return thread

    def request_stop(self) -> None:
        """Thread-safe shutdown trigger (the /shutdown endpoint's path)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        # Fork the process backend's workers first: children must not
        # inherit a half-started thread pool or in-flight batches.
        if self.config.backend == "process":
            if self.config.store is not None:
                # Concurrent appends from N processes would interleave in
                # one JSONL file; per-worker in-memory stores still answer
                # repeat requests warm for the daemon's lifetime.
                logger.warning(
                    "--store is not shared across process workers; "
                    "simulate results are cached per worker in memory"
                )
            self.procpool = ProcessWorkerPool(self.config.workers)
            self.procpool.start()
        # Backpressure: the batcher only dispatches while a worker slot is
        # free, so saturation fills the bounded queue (and trips 503s)
        # instead of growing the executor's unbounded internal queue.
        self._slots = asyncio.Semaphore(self.config.workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="serve-worker"
        )
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        batcher = asyncio.create_task(self._batch_loop())
        self.started.set()
        logger.info(
            "repro serve listening on %s:%d (%s backend)",
            self.config.host, self.port, self.config.backend,
        )
        try:
            async with server:
                await self._stop.wait()
        finally:
            batcher.cancel()
            try:
                await batcher
            except asyncio.CancelledError:
                pass
            # Fail queued requests cleanly rather than hanging clients:
            # their Shutdown errors ride a 503, never a fake success.
            while not self._queue.empty():
                pending = self._queue.get_nowait()
                if not pending.future.done():
                    pending.future.set_result(
                        {"status": "error", "error": {"type": "Shutdown",
                                                      "message": "server shutting down"}}
                    )
            self._executor.shutdown(wait=True)
            if self.procpool is not None:
                self.procpool.shutdown()
            # Let connection handlers flush the drained answers before
            # asyncio.run cancels them with responses still unwritten.
            others = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            if others:
                await asyncio.wait(others, timeout=5.0)

    # -- HTTP front ---------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self.connections += 1
        counter("serve.connections")
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _BadRequest as exc:
                    # A diagnosable answer beats a bare connection reset.
                    await self._write_response(
                        writer,
                        exc.status,
                        {"status": "error",
                         "error": {"type": "BadRequest", "message": str(exc)}},
                        close=True,
                    )
                    return
                except (asyncio.IncompleteReadError, ConnectionError) as exc:
                    logger.debug("connection dropped mid-request: %s", exc)
                    return
                if parsed is None:  # clean EOF between keep-alive requests
                    return
                method, path, body, keep_alive = parsed
                try:
                    status, payload = await self._dispatch(method, path, body)
                except Exception:  # defensive: a handler bug must not kill the loop
                    logger.exception("request handler failed")
                    status, payload = 500, {"status": "error",
                                            "error": {"type": "InternalError",
                                                      "message": "internal server error"}}
                wrote = await self._write_response(
                    writer, status, payload, close=not keep_alive
                )
                if not keep_alive or not wrote:
                    return
        finally:
            try:
                writer.close()
            except ConnectionError:  # pragma: no cover - already gone
                pass

    @staticmethod
    async def _read_request(reader) -> tuple[str, str, bytes, bool] | None:
        """Parse one request; None on clean EOF, :class:`_BadRequest` on junk."""
        raw_line = await reader.readline()
        if not raw_line:
            return None
        request_line = raw_line.decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _BadRequest(
                400, f"malformed request line {request_line[:200]!r}"
            )
        method, path, version = parts[0].upper(), parts[1], parts[2].upper()
        # HTTP/1.1 defaults to keep-alive; 1.0 (and anything older) to close.
        keep_alive = version == "HTTP/1.1"
        length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length":
                try:
                    length = int(value)
                except ValueError:
                    raise _BadRequest(
                        400, f"Content-Length {value[:50]!r} is not an integer"
                    ) from None
                if length < 0:
                    raise _BadRequest(400, f"negative Content-Length {length}")
            elif name == "connection":
                keep_alive = value.lower() != "close"
        if length > MAX_BODY_BYTES:
            raise _BadRequest(
                413,
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap",
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, body, keep_alive

    async def _write_response(
        self, writer, status: int, payload: dict, close: bool
    ) -> bool:
        blob = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
        ).encode()
        try:
            writer.write(head + blob)
            await writer.drain()
            return True
        except ConnectionError:
            return False

    async def _dispatch(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        if method == "GET" and path == "/health":
            return 200, {
                "status": "ok",
                "version": PROTOCOL_VERSION,
                "backend": self.config.backend,
            }
        if method == "GET" and path == "/stats":
            return 200, self._stats_payload()
        if method == "POST" and path == "/shutdown":
            self._stop.set()
            return 200, {"status": "ok", "stopping": True}
        if method == "POST" and path in ("/", "/request"):
            return await self._enqueue(body)
        return 404, {"status": "error",
                     "error": {"type": "NotFound",
                               "message": f"{method} {path} is not an endpoint"}}

    def _stats_payload(self) -> dict:
        if self.procpool is not None:
            stats = self.procpool.stats()
            # Batching is front-side accounting in the process backend.
            stats.update(
                batches=self.service.batches,
                batched_requests=self.service.batched_requests,
                max_batch=self.service.max_batch,
            )
        else:
            stats = self.service.stats()
        stats["backend"] = self.config.backend
        stats["workers"] = self.config.workers
        stats["connections"] = self.connections
        stats["queue_depth"] = self._queue.qsize()
        return stats

    async def _enqueue(self, body: bytes) -> tuple[int, dict]:
        try:
            request = parse_request(json.loads(body.decode() or "null"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, {"status": "error",
                         "error": {"type": "ProtocolError",
                                   "message": f"request body is not JSON: {exc}"}}
        except ProtocolError as exc:
            return 400, {"status": "error",
                         "error": {"type": "ProtocolError", "message": str(exc)}}
        pending = _Pending(request=request, future=self._loop.create_future())
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            counter("serve.overload")
            return 503, {"status": "overloaded",
                         "error": {"type": "Overloaded",
                                   "message": f"request queue is full "
                                              f"({self.config.queue_size})"}}
        response = await pending.future
        return _status_for(response), response

    # -- batching back ------------------------------------------------------

    async def _batch_loop(self) -> None:
        # Requests this coroutine has taken off the queue but not yet
        # handed to a worker; resolved with Shutdown errors if the loop
        # is cancelled while holding them (they'd hang clients otherwise).
        held: list[_Pending] = []
        try:
            while True:
                held = [await self._queue.get()]
                # Adaptive coalescing: take everything already queued,
                # but only *wait* for company while every worker is busy
                # — a solo request on an idle daemon ships immediately
                # (no window tax), while saturation grows batches free.
                while len(held) < self.config.max_batch:
                    try:
                        held.append(self._queue.get_nowait())
                        continue
                    except asyncio.QueueEmpty:
                        pass
                    if not self._slots.locked():
                        break
                    try:
                        held.append(
                            await asyncio.wait_for(
                                self._queue.get(), self.config.batch_window_s
                            )
                        )
                    except asyncio.TimeoutError:
                        break
                groups: dict[str, list[_Pending]] = {}
                for pending in held:
                    groups.setdefault(
                        self._batch_key(pending), []
                    ).append(pending)
                for key, group in groups.items():
                    await self._slots.acquire()
                    task = self._loop.run_in_executor(
                        self._executor, self._run_batch, key, group
                    )
                    self._inflight.add(task)
                    task.add_done_callback(self._batch_done)
                    for pending in group:
                        held.remove(pending)
        finally:
            for pending in held:
                if not pending.future.done():
                    pending.future.set_result(
                        {"status": "error",
                         "error": {"type": "Shutdown",
                                   "message": "server shutting down"}}
                    )

    def _batch_done(self, task) -> None:
        # Runs on the event loop (run_in_executor future callbacks do).
        self._inflight.discard(task)
        self._slots.release()

    def _batch_key(self, pending: _Pending) -> str:
        # Cheap after the first resolution per device (cached); a bad
        # device name groups alone and fails inside handle() instead.
        try:
            return self.service.batch_key(pending.request)
        except Exception:
            return f"!{id(pending)}"

    def _run_batch(self, key: str, group: list[_Pending]) -> None:
        """Worker/dispatcher-thread body: serve one same-fingerprint group."""
        started = time.perf_counter()
        for pending in group:
            observe("serve.queue_wait", max(0.0, started - pending.enqueued))
        # Account the batch before resolving futures: a client must not
        # see its response while /stats still lacks the batch it rode in.
        self.service.note_batch(len(group))
        counter("serve.batches")
        counter("serve.batched_requests", len(group))
        gauge_max("serve.batch_max", len(group))
        if self.procpool is not None:
            # Dispatcher mode: ship the group to a fork-warm worker
            # process and block on its reply (the GIL is released while
            # waiting, so N dispatchers drive N cores of real compiles).
            responses = self.procpool.run_batch(
                [pending.request for pending in group]
            )
            for pending, response in zip(group, responses):
                response.setdefault("batch_size", len(group))
                self._loop.call_soon_threadsafe(
                    _resolve, pending.future, response
                )
            return
        with span("serve.batch", group=f"x{len(group)}"):
            for pending in group:
                response = dict(self.service.handle(pending.request))
                response.setdefault("batch_size", len(group))
                self._loop.call_soon_threadsafe(
                    _resolve, pending.future, response
                )


def _resolve(future: asyncio.Future, response: dict) -> None:
    if not future.done():
        future.set_result(response)


def run_server(config: ServeConfig | None = None) -> None:
    """Entry point of ``repro serve``: block until shutdown."""
    ReproServer(config).run()
