"""The ``repro serve`` daemon: asyncio front, thread- or process-pool back.

Architecture (one front, one request per worker slot, two executors):

- an :mod:`asyncio` server accepts local HTTP/1.1 connections — now with
  **keep-alive**: a client reuses one connection across a session
  instead of paying a reconnect per request — and parses JSON requests
  (``POST /request``), plus ``GET /health``, ``GET /stats`` and ``POST
  /shutdown`` control endpoints;
- accepted requests enter a **bounded** queue — when it is full the
  daemon answers ``503 {"status": "overloaded"}`` immediately instead of
  buffering unboundedly;
- ``workers`` worker coroutines each take one request off the queue and
  await its answer from the configured executor:

  - ``backend="thread"`` (default): a thread pool calling the shared
    thread-safe :class:`CompileService` — one process, caches shared by
    construction, but GIL-bound for CPU-heavy compiles;
  - ``backend="process"``: :meth:`ProcessWorkerPool.run
    <repro.serve.procpool.ProcessWorkerPool.run>` on the campaign
    runner's fork-warm :func:`~repro.campaigns.runner.warm_pool` — true
    multicore compiles; a dead worker breaks the pool, which is rebuilt
    whole, and every request in flight re-runs on the new pool.

  A worker slot only takes a request when it is free, so saturation
  fills the bounded queue (and trips 503s) instead of an executor's
  unbounded internal queue.

Failures are *visible*: a handler error payload rides a non-200 status
(500, or 503 for requests drained or refused at shutdown), and malformed
HTTP input is answered with a diagnosable ``400``/``413`` before the
connection closes — never a silent reset.  At stop, answers still owed
are written with ``Connection: close``, and a kept-alive connection idle
for :data:`STOP_GRACE_S` is closed, so shutdown never waits on a client.

Queue wait (enqueue → worker start) is observed as ``serve.queue_wait``
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
from functools import partial

from repro.serve.procpool import ProcessWorkerPool
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError, parse_request
from repro.serve.service import CompileService
from repro.telemetry import counter, observe

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

#: How long a kept-alive connection idle at stop may still send one
#: request (answered 503 ``Shutdown``) before the daemon closes it.
STOP_GRACE_S = 0.5


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
    #: Worker slots, each serving one request at a time on a worker
    #: thread (thread backend) or worker process (process backend).
    workers: int = 4
    #: ``"thread"`` (one process, GIL-shared caches) or ``"process"``
    #: (fork-warm worker processes for multicore scaling).
    backend: str = "thread"
    #: Optional ResultStore path for simulate requests (thread backend
    #: only — process workers keep per-worker in-memory stores).
    store: str | None = None


@dataclass
class _Pending:
    """One queued request, waiting for a worker slot."""

    request: object
    future: asyncio.Future
    enqueued: float = field(default_factory=time.perf_counter)


#: The answer to a request the daemon will not serve because it is stopping.
_SHUTDOWN = {"status": "error",
             "error": {"type": "Shutdown", "message": "server shutting down"}}


def _status_for(response: dict) -> int:
    """HTTP status for a handler response: failures must be visible.

    ``status: "error"`` payloads ride a 500 — except requests drained or
    refused at shutdown, whose ``Shutdown`` error is a 503 (retry
    elsewhere/later).
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
        #: The thread backend's shared request engine; process workers
        #: each own one, so the process backend's front has none.
        self.service = None
        if self.config.backend == "thread":
            self.service = service or CompileService(store=self.config.store)
        #: Actual bound port, available once ``started`` is set (lets
        #: tests and the load harness bind port 0 for an ephemeral port).
        self.port: int | None = None
        self.started = threading.Event()
        #: The worker pool of the process backend (None under thread).
        self.procpool = None
        #: Connections accepted since start (keep-alive reuse shows up
        #: as requests outnumbering connections in /stats).
        self.connections = 0
        #: Writers of connections waiting for their next request line;
        #: None once stop has closed them.
        self._idle: set | None = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._queue: asyncio.Queue | None = None

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
        threads = None
        # Fork the process backend's workers first: children must not
        # inherit a half-started thread pool or in-flight requests.
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
            run = self.procpool.run
        else:
            threads = ThreadPoolExecutor(
                max_workers=self.config.workers, thread_name_prefix="serve-worker"
            )
            run = partial(self._loop.run_in_executor, threads, self.service.handle)
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        workers = [
            asyncio.create_task(self._worker(run))
            for _ in range(self.config.workers)
        ]
        self.started.set()
        logger.info(
            "repro serve listening on %s:%d (%s backend)",
            self.config.host, self.port, self.config.backend,
        )
        try:
            async with server:
                await self._stop.wait()
        finally:
            self._loop.call_later(STOP_GRACE_S, self._close_idle)
            # Fail queued requests cleanly rather than hanging clients:
            # their Shutdown errors ride a 503, never a fake success.
            while not self._queue.empty():
                future = self._queue.get_nowait().future
                if not future.done():
                    future.set_result(_SHUTDOWN)
            # Idle slots stop at once; running requests finish first.
            for worker in workers:
                worker.cancel()
            await asyncio.gather(*workers, return_exceptions=True)
            if threads is not None:
                threads.shutdown(wait=True)
            if self.procpool is not None:
                self.procpool.shutdown()
            # Let connection handlers flush the drained answers before
            # asyncio.run cancels them with responses still unwritten;
            # idle kept-alive handlers end when _close_idle closes them.
            others = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            if others:
                await asyncio.wait(others, timeout=5.0)

    def _close_idle(self) -> None:
        """Close every connection still waiting for its next request."""
        idle, self._idle = self._idle, None
        for writer in idle:
            writer.close()

    # -- HTTP front ---------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self.connections += 1
        counter("serve.connections")
        try:
            while True:
                try:
                    parsed = await self._read_request(reader, writer)
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
                # A stopping daemon keeps no connection alive.
                keep_alive = keep_alive and not self._stop.is_set()
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

    async def _read_request(
        self, reader, writer
    ) -> tuple[str, str, bytes, bool] | None:
        """Parse one request; None on clean EOF, :class:`_BadRequest` on junk.

        While it waits for the request line the connection is idle: stop
        may close it, which reads as a clean EOF here.
        """
        if self._idle is None:
            return None
        self._idle.add(writer)
        try:
            raw_line = await reader.readline()
        finally:
            if self._idle is not None:
                self._idle.discard(writer)
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
        stats = (self.procpool or self.service).stats()
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
        if self._stop.is_set():
            # A kept-alive connection outlives the listener: no worker
            # will take this request, so refuse it rather than hang.
            return 503, _SHUTDOWN
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

    # -- worker slots -------------------------------------------------------

    async def _worker(self, run) -> None:
        """One worker slot: serve queued requests one at a time."""
        while True:
            pending = await self._queue.get()
            observe(
                "serve.queue_wait",
                max(0.0, time.perf_counter() - pending.enqueued),
            )
            answer = asyncio.ensure_future(run(pending.request))
            try:
                await asyncio.wait([answer])
            except asyncio.CancelledError:
                # Shutdown stops an idle slot at once; a running request
                # still finishes (wait() never cancels it) and answers.
                await asyncio.wait([answer])
                raise
            finally:
                _settle(pending.future, answer)


def _settle(future: asyncio.Future, answer: asyncio.Future) -> None:
    """Hand a finished answer to its client; a raised error becomes a 500."""
    if future.done():
        return
    error = answer.exception()
    if error is None:
        future.set_result(answer.result())
    else:
        future.set_exception(error)


def run_server(config: ServeConfig | None = None) -> None:
    """Entry point of ``repro serve``: block until shutdown."""
    ReproServer(config).run()
