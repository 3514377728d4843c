"""Hierarchical span/counter/gauge telemetry with a JSONL trace sink.

The observability spine of the reproduction: every hot layer (scheduler,
pulse engine, executor backends, campaign runner) reports *where* time
goes through this module, mirroring the paper's own per-phase evaluation
methodology (fig22's fidelity breakdown, fig24's compile/execute split).

Design constraints, in order:

1. **Near-zero overhead when disabled.**  Disabled ``span()`` returns a
   shared no-op context manager (no allocation); disabled ``counter()``/
   ``gauge()``/``observe()`` are a module-global bool check and a return.
   Instrumentation can therefore live permanently on hot paths.
2. **Aggregated, not event-logged.**  Spans aggregate per *path* (the
   "/"-joined stack of enclosing span names) and optional *group* label:
   count, total/min/max seconds, plus a bounded list of raw durations
   (:data:`MAX_DURATIONS`) so percentiles stay exact for the
   low-cardinality spans that need them (campaign cells) without letting
   per-layer spans grow memory unboundedly.
3. **Mergeable across processes.**  :func:`snapshot` serializes the
   collected state to plain JSON; :func:`merge_snapshot` folds a worker's
   snapshot back into the parent trace.  Merging is deterministic:
   span/counter keys are summed, gauges keep the maximum.

Enablement: :func:`enable` / the ``REPRO_TELEMETRY`` environment variable
(``1`` = in-memory only, any other non-empty value = trace file path) /
the CLI's ``--telemetry [PATH]``.  ``enable`` exports ``REPRO_TELEMETRY=1``
so campaign worker processes inherit collection (memory-only — their
snapshots ride back to the parent on each cell outcome).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

ENV_TELEMETRY = "REPRO_TELEMETRY"

#: Per-(path, group) cap on retained raw durations.  Percentiles are exact
#: below the cap; past it the span keeps aggregating (count/total/min/max)
#: and marks itself truncated.
MAX_DURATIONS = 4096

#: Trace-file format version (first line of every trace).
TRACE_FORMAT = 1

_enabled = False
_trace_path: Path | None = None
_local = threading.local()


def enabled() -> bool:
    """Is telemetry collection on?"""
    return _enabled


def trace_path() -> Path | None:
    """Where :func:`write_trace` will write by default (None = nowhere)."""
    return _trace_path


def enable(trace: str | Path | None = None) -> None:
    """Turn collection on (optionally naming the JSONL trace sink).

    Exports ``REPRO_TELEMETRY=1`` so worker processes spawned after this
    point collect too — in memory only; a single process owns the file.
    """
    global _enabled, _trace_path
    _enabled = True
    if trace is not None:
        _trace_path = Path(trace)
    os.environ[ENV_TELEMETRY] = "1"


def disable() -> None:
    """Turn collection off (collected data stays until :func:`reset`)."""
    global _enabled, _trace_path
    _enabled = False
    _trace_path = None
    os.environ.pop(ENV_TELEMETRY, None)


class SpanStats:
    """Aggregate of every completed span at one (path, group)."""

    __slots__ = ("count", "total_s", "min_s", "max_s", "errors", "durations")

    def __init__(self):
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self.errors = 0
        self.durations: list[float] = []

    def add(self, seconds: float, error: bool = False) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds
        if error:
            self.errors += 1
        if len(self.durations) < MAX_DURATIONS:
            self.durations.append(seconds)

    @property
    def truncated(self) -> bool:
        return self.count > len(self.durations)

    def as_dict(self, path: str, group: str) -> dict:
        return {
            "path": path,
            "group": group,
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "errors": self.errors,
            "durations_s": list(self.durations),
        }

    @staticmethod
    def from_dict(data: dict) -> "SpanStats":
        stats = SpanStats()
        stats.count = int(data["count"])
        stats.total_s = float(data["total_s"])
        stats.min_s = float(data["min_s"])
        stats.max_s = float(data["max_s"])
        stats.errors = int(data.get("errors", 0))
        stats.durations = [float(d) for d in data.get("durations_s", ())]
        return stats

    def merge(self, other: "SpanStats") -> None:
        self.count += other.count
        self.total_s += other.total_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)
        self.errors += other.errors
        room = MAX_DURATIONS - len(self.durations)
        if room > 0:
            self.durations.extend(other.durations[:room])


class Collector:
    """One accumulation scope: spans by (path, group), counters, gauges.

    Thread-safe: concurrent ``repro serve`` requests record spans and
    counters into the module-global collector from many worker threads
    at once, so every mutation (and the snapshot read) happens under a
    per-collector lock.  The lock is uncontended in single-threaded runs
    and held only for the dict update itself, keeping the enabled-path
    overhead within the bench_telemetry_overhead budget.
    """

    def __init__(self):
        self.spans: dict[tuple[str, str], SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._lock = threading.Lock()

    def record_span(
        self, path: str, group: str, seconds: float, error: bool = False
    ) -> None:
        with self._lock:
            stats = self.spans.get((path, group))
            if stats is None:
                stats = self.spans[(path, group)] = SpanStats()
            stats.add(seconds, error)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Set the gauge only when ``value`` exceeds the current one."""
        with self._lock:
            current = self.gauges.get(name)
            if current is None or value > current:
                self.gauges[name] = float(value)

    def is_empty(self) -> bool:
        return not (self.spans or self.counters or self.gauges)

    def snapshot(self) -> dict:
        """Plain-JSON form of everything collected (deterministic order)."""
        with self._lock:
            return {
                "spans": [
                    self.spans[key].as_dict(*key) for key in sorted(self.spans)
                ],
                "counters": {
                    k: self.counters[k] for k in sorted(self.counters)
                },
                "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            }

    def merge_snapshot(self, snap: dict | None) -> None:
        """Fold a snapshot (e.g. from a worker process) into this scope.

        Deterministic and order-independent up to the duration cap: span
        and counter values are summed, gauges keep the maximum.
        """
        if not snap:
            return
        with self._lock:
            for data in snap.get("spans", ()):
                key = (data["path"], data.get("group", ""))
                stats = self.spans.get(key)
                if stats is None:
                    self.spans[key] = SpanStats.from_dict(data)
                else:
                    stats.merge(SpanStats.from_dict(data))
            for name, value in snap.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in snap.get("gauges", {}).items():
                current = self.gauges.get(name)
                if current is None or value > current:
                    self.gauges[name] = float(value)

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            self.gauges.clear()


#: The process-wide trace every record lands in.
_GLOBAL = Collector()


def _stack() -> list[str]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _captures() -> list[Collector]:
    caps = getattr(_local, "captures", None)
    if caps is None:
        caps = _local.captures = []
    return caps


class _NullSpan:
    """The shared disabled-mode span: enter/exit do nothing, allocate nothing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "group", "t0")

    def __init__(self, name: str, group: str):
        self.name = name
        self.group = group

    def __enter__(self):
        _stack().append(self.name)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        seconds = time.perf_counter() - self.t0
        stack = _stack()
        path = "/".join(stack)
        stack.pop()
        error = exc_type is not None
        _GLOBAL.record_span(path, self.group, seconds, error)
        for collector in _captures():
            collector.record_span(path, self.group, seconds, error)
        return False


def span(name: str, group: str = ""):
    """Time a block as a hierarchical span: ``with span("sched.algorithm1"):``.

    Nested spans aggregate under their "/"-joined name path; ``group``
    adds a sub-key used for per-group percentiles (e.g. the campaign cell
    label) without fragmenting the span tree.  Exception-safe: a span
    closed by an exception is recorded (flagged as an error) and the
    exception propagates unchanged.
    """
    if not _enabled:
        return _NULL_SPAN
    return _Span(name, group)


def observe(name: str, seconds: float, group: str = "") -> None:
    """Record an externally measured duration as if a span had run.

    For durations the measuring process cannot wrap in a ``with`` block —
    e.g. the parent reconstructing a worker's queue wait from timestamps.
    """
    if not _enabled:
        return
    stack = _stack()
    path = "/".join((*stack, name)) if stack else name
    _GLOBAL.record_span(path, group, seconds)
    for collector in _captures():
        collector.record_span(path, group, seconds)


def counter(name: str, n: float = 1) -> None:
    """Increment a named counter (no-op when disabled)."""
    if not _enabled:
        return
    _GLOBAL.count(name, n)
    for collector in _captures():
        collector.count(name, n)


def gauge(name: str, value: float) -> None:
    """Set a named gauge to its latest value (no-op when disabled)."""
    if not _enabled:
        return
    _GLOBAL.gauge(name, value)
    for collector in _captures():
        collector.gauge(name, value)


def gauge_max(name: str, value: float) -> None:
    """Raise a named gauge to ``value`` if it is the new maximum.

    Safe under concurrency (the compare-and-set happens inside the
    collector lock) — for high-water marks.
    """
    if not _enabled:
        return
    _GLOBAL.gauge_max(name, value)
    for collector in _captures():
        collector.gauge_max(name, value)


class _Capture:
    """Context manager that tees all records into a private collector."""

    __slots__ = ("collector",)

    def __init__(self):
        self.collector: Collector | None = None

    def __enter__(self):
        if _enabled:
            self.collector = Collector()
            _captures().append(self.collector)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.collector is not None:
            _captures().remove(self.collector)
        return False

    def snapshot(self) -> dict | None:
        """What was recorded inside the block (None when disabled/empty)."""
        if self.collector is None or self.collector.is_empty():
            return None
        return self.collector.snapshot()


def capture() -> _Capture:
    """Record a block's telemetry into a detachable snapshot.

    Everything recorded inside the block still lands in the process trace;
    the capture additionally keeps a private copy whose :meth:`snapshot`
    can be attached to a result record or shipped across processes.
    Disabled mode captures nothing and snapshots to ``None``.
    """
    return _Capture()


def snapshot() -> dict:
    """The process-wide trace as plain JSON (see :meth:`Collector.snapshot`)."""
    return _GLOBAL.snapshot()


def merge_snapshot(snap: dict | None) -> None:
    """Fold a snapshot from another process into the process-wide trace."""
    if not _enabled or not snap:
        return
    _GLOBAL.merge_snapshot(snap)
    for collector in _captures():
        collector.merge_snapshot(snap)


def reset() -> None:
    """Drop everything collected so far (collection state unchanged)."""
    _GLOBAL.clear()


def write_trace(
    path: str | Path | None = None, meta: dict | None = None
) -> Path | None:
    """Write the process trace as JSONL; returns the path written (or None).

    Line 1 is a ``meta`` record (format version, timestamp, extra fields);
    then one line per span aggregate, one per counter, one per gauge.
    """
    path = Path(path) if path is not None else _trace_path
    if path is None:
        return None
    snap = _GLOBAL.snapshot()
    header = {
        "type": "meta",
        "format": TRACE_FORMAT,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if meta:
        header.update(meta)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for data in snap["spans"]:
            fh.write(json.dumps({"type": "span", **data}) + "\n")
        for name, value in snap["counters"].items():
            fh.write(
                json.dumps({"type": "counter", "name": name, "value": value})
                + "\n"
            )
        for name, value in snap["gauges"].items():
            fh.write(
                json.dumps({"type": "gauge", "name": name, "value": value})
                + "\n"
            )
    return path


def read_trace(path: str | Path) -> dict:
    """Load a JSONL trace back into snapshot form (plus its meta record)."""
    snap: dict = {"spans": [], "counters": {}, "gauges": {}, "meta": {}}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "meta":
                fmt = record.get("format", 1)
                if isinstance(fmt, int) and fmt > TRACE_FORMAT:
                    raise ValueError(
                        f"trace {path} is format {fmt}, newer than this "
                        f"checkout (reads <= {TRACE_FORMAT})"
                    )
                snap["meta"] = record
            elif kind == "span":
                snap["spans"].append(record)
            elif kind == "counter":
                snap["counters"][record["name"]] = record["value"]
            elif kind == "gauge":
                snap["gauges"][record["name"]] = record["value"]
    return snap


def _init_from_env() -> None:
    value = os.environ.get(ENV_TELEMETRY, "")
    if value in ("", "0"):
        return
    if value == "1":
        enable()
    else:
        enable(trace=value)


_init_from_env()
