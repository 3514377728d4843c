"""The serve daemon's request engine: warm caches + thread-safe handlers.

One :class:`CompileService` owns every amortizable artifact of the
compile/simulate path and keeps it hot across requests:

- the process's bounded, thread-safe
  :data:`~repro.scheduling.plan_cache.SHARED_PLAN_CACHE` — one
  Algorithm-1 plan serves every compile *and* simulate request that
  asks for the same ``(topology, Q, alpha, top_k)`` problem;
- bounded memos, one pair per service, of the scale-device contexts
  (:func:`~repro.scheduling.scalebench.scale_context`) and benchmark
  circuits that compile requests name
  (``serve.scale_context``/``scale_circuit``);
- the pulse-library cache (via the campaign runner's per-process
  ``cached_library``, which itself sits on the warm pulse-cache file);
- per-``(library, device, noise)``
  :class:`~repro.runtime.backends.LayerPropagatorCache` instances for
  simulate requests — *keyed* instances, because a propagator cache must
  not outlive one (library, device couplings, noise) validity domain —
  held in a bounded memo of their own;
- a campaign :class:`~repro.campaigns.store.ResultStore` (in memory
  unless given a path), so repeated simulate requests are answered from
  it exactly like a resumed sweep.

Handlers are synchronous and thread-safe: the daemon calls them from a
thread pool, so every piece of shared state is either lock-guarded here
or internally thread-safe (every cache is a :class:`~repro.memo.MemoCache`).
Results are bit-identical to one-shot CLI runs: compile responses digest
the same schedule a fresh ``repro sched-bench`` process would emit,
simulate responses reuse the exact campaign evaluation path (same store
records).
"""

from __future__ import annotations

import threading
import time

from repro.campaigns.fingerprint import library_fingerprint
from repro.campaigns.runner import persist, supervised_evaluate
from repro.campaigns.spec import DEFAULT_POLICY, Cell, cell_key
from repro.campaigns.store import ResultStore, record_status
from repro.memo import MemoCache
from repro.runtime.backends import LayerPropagatorCache
from repro.scheduling.plan_cache import SHARED_PLAN_CACHE
from repro.scheduling.scalebench import bench_circuit, scale_context
from repro.scheduling.zzxsched import zzx_schedule
from repro.serve.protocol import (
    CompileRequest,
    SimulateRequest,
    schedule_digest,
)
from repro.telemetry import counter, span

#: Bound per layer-propagator cache (entries per map, FIFO).
PROP_CACHE_SIZE = 512

#: Propagator caches kept at once, one per (method, device, T1, T2)
#: domain; each may hold PROP_CACHE_SIZE six-qubit unitaries (~32 MiB).
PROP_DOMAINS = 4


#: Bound of each service's ``serve.scale_context`` and
#: ``serve.scale_circuit`` memos.  Compile requests usually carry fresh
#: seeds, so the circuit memo rarely hits; the bound is small on purpose:
#: an eagle/qaoa circuit is ~2600 gate objects that every full garbage
#: collection re-traverses, and 64 entries measured ~15% slower serve
#: compiles than 16 (GC time alone).
SCALE_CACHE_SIZE = 16


class CompileService:
    """Thread-safe request engine behind the ``repro serve`` daemon."""

    def __init__(self, store: ResultStore | str | None = None):
        # The process-wide cache simulate requests already schedule
        # through; a process worker inherits it warm from the fork.
        self.plan_cache = SHARED_PLAN_CACHE
        self._prop_caches = MemoCache("serve.prop_domain", PROP_DOMAINS)
        self.scale_contexts = MemoCache("serve.scale_context", SCALE_CACHE_SIZE)
        self.scale_circuits = MemoCache("serve.scale_circuit", SCALE_CACHE_SIZE)
        # No path -> in-memory store: repeat simulate requests are still
        # answered from the first evaluation for the daemon's lifetime.
        if store is None or isinstance(store, str):
            store = ResultStore(store)
        self.store = store
        self._fingerprint = library_fingerprint()
        self._lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        self.store_hits = 0

    # -- request handlers ---------------------------------------------------

    def handle(self, request) -> dict:
        """Serve one request; never raises — errors become responses."""
        with self._lock:
            self.requests += 1
        counter("serve.requests")
        with span("serve.request", group=request.kind):
            try:
                if isinstance(request, CompileRequest):
                    response = self._handle_compile(request)
                elif isinstance(request, SimulateRequest):
                    response = self._handle_simulate(request)
                else:  # pragma: no cover - parse_request prevents this
                    raise TypeError(f"unknown request type {type(request)!r}")
            except Exception as exc:
                with self._lock:
                    self.errors += 1
                counter("serve.errors")
                return {
                    "status": "error",
                    "kind": request.kind,
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                }
        if response.get("status") != "ok":
            with self._lock:
                self.errors += 1
            counter("serve.errors")
        return response

    def _context(self, device: str):
        return self.scale_contexts.get(device, lambda: scale_context(device))

    def _handle_compile(self, request: CompileRequest) -> dict:
        topology, requirement = self._context(request.device)
        circuit = self.scale_circuits.get(
            (request.device, request.circuit, request.seed),
            lambda: bench_circuit(topology, request.circuit, seed=request.seed),
        )
        t0 = time.perf_counter()
        with span("serve.compile", group=f"{request.device}/{request.circuit}"):
            schedule = zzx_schedule(
                circuit, topology, requirement, None, self.plan_cache
            )
        return {
            "status": "ok",
            "kind": "compile",
            "device": request.device,
            "circuit": request.circuit,
            "seed": request.seed,
            "num_qubits": topology.num_qubits,
            "num_gates": len(circuit.gates),
            "num_layers": schedule.num_layers,
            "digest": schedule_digest(schedule),
            "elapsed_s": time.perf_counter() - t0,
        }

    def _prop_cache_for(self, cell: Cell) -> LayerPropagatorCache | None:
        """The shared propagator cache of this cell's validity domain.

        Keyed by (pulse method, device spec, T1, T2) — exactly the
        (library, device couplings, noise) combination a
        ``LayerPropagatorCache`` may serve — so sharing across requests
        can never cross domains.  Only density-backend cells get one;
        the statevector walk is faster without (per-backend policy).
        """
        if cell.backend != "density":
            return None
        return self._prop_caches.get(
            (cell.method, cell.device, cell.t1_us, cell.t2_us),
            lambda: LayerPropagatorCache(PROP_CACHE_SIZE),
        )

    def _handle_simulate(self, request: SimulateRequest) -> dict:
        cell = request.cell
        key = cell_key(cell, self._fingerprint)
        with self._lock:
            record = self.store.get(key)
        if record is not None and record_status(record) == "ok":
            with self._lock:
                self.store_hits += 1
            counter("serve.store_hit")
            return {
                "status": "ok",
                "kind": "simulate",
                "key": key,
                "result": record["result"],
                "elapsed_s": 0.0,
                "cached": True,
            }
        outcome = supervised_evaluate(
            cell, DEFAULT_POLICY, prop_cache=self._prop_cache_for(cell)
        )
        with self._lock:
            persist(self.store, cell, outcome, self._fingerprint)
        if not outcome.ok:
            return {
                "status": "error",
                "kind": "simulate",
                "key": key,
                "error": outcome.error,
                "elapsed_s": outcome.elapsed_s,
            }
        return {
            "status": "ok",
            "kind": "simulate",
            "key": key,
            "result": outcome.result,
            "elapsed_s": outcome.elapsed_s,
            "cached": False,
        }

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """JSON-able cache/request statistics for the /stats endpoint."""
        domains = [cache.stats for _, cache in self._prop_caches.export()]
        prop = {"instances": len(domains)}
        for name in ("hits", "misses", "evictions"):
            prop[name] = sum(domain[name] for domain in domains)
        with self._lock:
            stats = {
                "requests": self.requests,
                "errors": self.errors,
                "store_hits": self.store_hits,
            }
        stats["plan_cache"] = self.plan_cache.stats
        stats["prop_caches"] = prop
        stats["scale_context"] = self.scale_contexts.stats
        stats["scale_circuit"] = self.scale_circuits.stats
        stats["store"] = {
            "path": str(self.store.path) if self.store.path else None,
            "records": len(self.store),
        }
        return stats
