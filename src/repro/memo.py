"""One bounded, thread-safe memo behind every warm cache in the package.

Algorithm 1 plans, Trotter layer propagators and the runner/serve
contexts are all pure functions of their keys, so they share one cache
discipline:

- :meth:`MemoCache.get` builds each missing key **exactly once**, even
  under threads: a caller asking for a key another thread is building
  waits for that build and counts as a hit (it computed nothing);
- a full cache evicts its oldest entry FIFO instead of refusing the
  insert (workloads revisit keys in order, so the oldest is the least
  likely to recur); ``maxsize=None`` keeps every entry;
- ``hits``/``misses``/``evictions`` live on the instance and are emitted
  as ``<name>.hit|miss|evict`` telemetry counters, which ``repro stats``
  tabulates for every cache by name.

One lock guards entries, in-flight builds and counters.  It is held only
for dict access and bookkeeping, never while ``build()`` runs, so the
single-threaded path pays one uncontended acquire per lookup.  A build
that raises caches nothing; its waiters retry the build themselves.
"""

from __future__ import annotations

import functools
import threading

from repro.telemetry import counter

_MISSING = object()


class MemoCache:
    """A named, optionally bounded, exactly-once memo of ``key -> value``."""

    def __init__(self, name: str, maxsize: int | None = None):
        self.name = name
        self.maxsize = maxsize
        self._counters = {e: f"{name}.{e}" for e in ("hit", "miss", "evict")}
        self._entries: dict = {}
        self._inflight: dict = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _insert(self, key, value) -> bool:
        """Store under the FIFO bound (lock held by the caller)."""
        if key in self._entries:
            return False
        if self.maxsize is not None and len(self._entries) >= self.maxsize:
            del self._entries[next(iter(self._entries))]
            self.evictions += 1
            counter(self._counters["evict"])
        self._entries[key] = value
        return True

    def get(self, key, build):
        """The value for ``key``, built via ``build()`` at most once."""
        while True:
            with self._lock:
                value = self._entries.get(key, _MISSING)
                if value is not _MISSING:
                    self.hits += 1
                    counter(self._counters["hit"])
                    return value
                pending = self._inflight.get(key)
                if pending is None:
                    event = self._inflight[key] = threading.Event()
                    self.misses += 1
                    counter(self._counters["miss"])
                    break
            # Another thread is building this key: wait, then re-check (a
            # FIFO eviction or a failed build may intervene — then loop and
            # become the builder ourselves).
            pending.wait()
        try:
            value = build()
            with self._lock:
                self._insert(key, value)
        finally:
            with self._lock:
                del self._inflight[key]
            event.set()
        return value

    def export(self) -> tuple:
        """Picklable ``((key, value), ...)`` snapshot, oldest first."""
        with self._lock:
            return tuple(self._entries.items())

    def absorb(self, items) -> int:
        """Seed from an :meth:`export` snapshot; returns entries added.

        Existing entries win (values are pure functions of their keys),
        absorbed entries count as neither hits nor misses, and the bound
        applies exactly as on :meth:`get`.
        """
        with self._lock:
            return sum(self._insert(key, value) for key, value in items)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self),
        }


def memoized(name: str, maxsize: int | None):
    """Memoize a function of hashable positional arguments in a MemoCache.

    The wrapper exposes its cache as ``.cache`` (``len``, ``stats``,
    ``clear()``).
    """

    def decorate(fn):
        cache = MemoCache(name, maxsize)

        @functools.wraps(fn)
        def wrapper(*args):
            return cache.get(args, lambda: fn(*args))

        wrapper.cache = cache
        return wrapper

    return decorate
