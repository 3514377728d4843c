"""Campaign execution engine: run sweep cells serially or across processes.

The runner takes an iterable of :class:`~repro.campaigns.spec.Cell` (or a
:class:`~repro.campaigns.spec.SweepSpec`), skips every cell the store
already holds, evaluates the rest, and returns records in the *original
cell order* regardless of completion order — parallel runs are
reproducible and byte-compatible with serial ones.

Dispatch is a *decision*, not a default (``dispatch="auto"``): the cost
model (:mod:`repro.campaigns.costmodel`) estimates serial vs parallel
wall time — calibrated from ``elapsed_s`` of prior store records when
available — and only fans out when the model predicts a real win on the
cores this process can actually use.  The decision and its reasoning
land on :attr:`CampaignResult.dispatch` / ``dispatch_reason``.

- the serial path evaluates in-process through this module's warm
  caches — which the experiments harness (``experiments/common.py``)
  also delegates to, so it is bit-identical to the historical inline
  loops and nothing is compiled or sampled twice;
- the parallel path fans cells out over a :func:`warm_pool` (the one
  fork-warm process pool in the package; ``repro serve --backend
  process`` runs on it too) in longest-job-first order (cost-sorted, so
  workers pulling from the queue steal the cheap tail while the
  expensive cells run — skewed grids keep every worker busy).  Before
  the pool spawns, the *parent* pre-warms the shared caches (pulse
  libraries, devices, plan cache, simulation schedules): on fork-start
  platforms workers inherit every warm cache for free; on spawn-start
  platforms the initializer ships a serialized plan-cache snapshot
  instead.  Dispatch and persistence are *per cell*: every
  completed cell is appended to the store the moment it lands, so a
  killed campaign — or a killed worker — loses at most the cells that
  were actually in flight.

Numerically the two paths are identical: every worker executes the same
pure evaluation function on the same inputs, and all caches are keyed
by content (plans, devices, schedules are pure functions of their key),
so warm-vs-cold can change timing only, never a record.

Both paths run under *supervision* (:func:`supervised_evaluate`): each
cell gets a configurable wall-clock timeout, bounded retries with
exponential backoff + deterministic jitter for transient errors, and a
quarantine policy — a cell that exhausts its attempts is recorded as a
durable failure (:class:`CellOutcome`) and the campaign continues, until
``RetryPolicy.max_failures`` quarantines abort the run cleanly
(:class:`CampaignAbort`; everything completed so far is already stored).
A broken process pool (worker killed, OOM, segfault) is rebuilt whole
and only the unfinished cells are re-dispatched; a pool that breaks more
than :data:`MAX_POOL_RESPAWNS` times degrades to serial execution rather
than giving up.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections.abc import Iterable
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

from repro.campaigns.costmodel import (
    CostCalibration,
    DispatchDecision,
    decide_dispatch,
    order_longest_first,
)
from repro.campaigns.faults import maybe_fault
from repro.campaigns.fingerprint import library_fingerprint
from repro.campaigns.spec import (
    DEFAULT_POLICY,
    Cell,
    DeviceSpec,
    RetryPolicy,
    SweepSpec,
    cell_key,
)
from repro.campaigns.store import ResultStore, record_status
from repro.circuits.compile import compile_circuit
from repro.circuits.library import BENCHMARKS
from repro.device.device import Device, make_device
from repro.device.topology import Topology
from repro.memo import memoized
from repro.pulses.library import PulseLibrary, build_library
from repro.runtime.executor import execute
from repro.scheduling.analysis import couplings_to_turn_off, execution_time
from repro.scheduling.layer import Schedule
from repro.scheduling.parsched import par_schedule
from repro.scheduling.plan_cache import SHARED_PLAN_CACHE
from repro.scheduling.zzxsched import ZZXConfig, zzx_schedule
from repro.sim.density import DecoherenceModel
from repro.telemetry import capture, counter, merge_snapshot, observe, span
from repro.units import US

# -- per-process warm caches ------------------------------------------------
# Module-level memos double as the "per-worker warm cache": the first cell
# a worker evaluates pays for device sampling / library load / compile +
# schedule, every later cell on the same grid point reuses them.  Each
# bound exceeds the distinct keys of the largest built-in sweep (one
# shape, 25 compiled circuits, 50 schedules at --full), so the parent
# pre-warm never evicts what it warmed.


@memoized("campaign.topology", maxsize=16)
def cached_topology(family: str, rows: int, cols: int) -> Topology:
    """One Topology per shape per process.

    Crucially this is *seed-independent*: every device seed on the same
    shape shares one instance, so its cached structures (distance matrix,
    planar dual, dual projection) are computed once per worker.
    """
    return DeviceSpec(rows=rows, cols=cols, family=family).topology()


@memoized("campaign.device", maxsize=64)
def cached_device(spec: DeviceSpec) -> Device:
    return make_device(
        cached_topology(spec.family, spec.rows, spec.cols),
        mean_khz=spec.mean_khz,
        std_khz=spec.std_khz,
        seed=spec.seed,
    )


@lru_cache(maxsize=8)
def cached_library(method: str) -> PulseLibrary:
    return build_library(method)


@memoized("campaign.compiled", maxsize=128)
def _cached_compiled(
    benchmark: str,
    num_qubits: int,
    circuit_seed: int,
    family: str,
    rows: int,
    cols: int,
):
    topology = cached_topology(family, rows, cols)
    circuit = BENCHMARKS[benchmark](num_qubits, seed=circuit_seed)
    return compile_circuit(circuit, topology)


@memoized("campaign.schedule", maxsize=256)
def _cached_schedule(
    benchmark: str,
    num_qubits: int,
    circuit_seed: int,
    family: str,
    rows: int,
    cols: int,
    scheduler: str,
    zzx: tuple[tuple[str, object], ...],
) -> Schedule:
    compiled = _cached_compiled(
        benchmark, num_qubits, circuit_seed, family, rows, cols
    )
    if scheduler == "par":
        return par_schedule(compiled.circuit)
    if scheduler == "zzx":
        topology = cached_topology(family, rows, cols)
        config = ZZXConfig(**dict(zzx)) if zzx else None
        # The process-wide plan cache persists across cells: repeated grid
        # points on one worker re-plan nothing (plans are pure functions
        # of the key, so sharing cannot change any schedule).
        return zzx_schedule(
            compiled.circuit, topology, config=config,
            plan_cache=SHARED_PLAN_CACHE,
        )
    raise ValueError(f"unknown scheduler {scheduler!r}")


def schedule_for_cell(cell: Cell) -> Schedule:
    return _cached_schedule(
        cell.benchmark,
        cell.num_qubits,
        cell.circuit_seed,
        cell.device.family,
        cell.device.rows,
        cell.device.cols,
        cell.scheduler,
        cell.zzx,
    )


def evaluate_cell(cell: Cell, prop_cache=None) -> dict:
    """Evaluate one cell; pure in its inputs, so safe on any worker.

    ``prop_cache`` optionally shares a
    :class:`~repro.runtime.backends.LayerPropagatorCache` across
    evaluations (the serve daemon passes one per (library, device, noise)
    combination so repeated requests reuse layer unitaries); ``None``
    keeps the per-execution default.  Reuse is bit-exact either way.
    """
    maybe_fault(cell)
    schedule = schedule_for_cell(cell)
    device = cached_device(cell.device)
    if cell.kind == "couplings":
        value = couplings_to_turn_off(
            schedule, device.topology, baseline=cell.scheduler == "par"
        )
        return {"value": value, "num_layers": schedule.num_layers}
    library = cached_library(cell.method)
    if cell.kind == "exec_time":
        return {
            "execution_time_ns": execution_time(schedule, library),
            "num_layers": schedule.num_layers,
        }
    decoherence = None
    if cell.t1_us is not None:
        decoherence = DecoherenceModel(
            t1_ns=cell.t1_us * US, t2_ns=cell.t2_us * US
        )
    out = execute(
        schedule,
        device,
        library,
        cell.backend,
        decoherence=decoherence,
        trajectories=cell.trajectories,
        cache=True if prop_cache is None else prop_cache,
    )
    record = {
        "fidelity": out.fidelity,
        "execution_time_ns": out.execution_time_ns,
        "num_layers": out.num_layers,
    }
    if out.stderr is not None:
        record["stderr"] = out.stderr
        record["num_trajectories"] = out.num_trajectories
    return record


# -- supervised evaluation --------------------------------------------------

#: Exception types that no retry will fix: they are deterministic
#: functions of the cell's inputs, so the first failure is final.
FATAL_TYPES = (ValueError, TypeError, KeyError, AttributeError)


class _CellTimeout(Exception):
    """Internal: raised by the SIGALRM handler when a cell overruns."""


class CampaignAbort(RuntimeError):
    """Too many quarantined cells: the campaign stopped cleanly.

    Every outcome decided before the abort — successes and failures
    alike — is already persisted; resuming against the same store picks
    up exactly where the abort left off.
    """

    def __init__(self, message: str, quarantined: int = 0):
        super().__init__(message)
        self.quarantined = quarantined


@dataclass
class CellOutcome:
    """What supervision concluded about one cell evaluation.

    ``status`` is ``"ok"``, ``"error"`` or ``"timeout"``; failures carry
    an ``error`` payload (exception type, message, traceback, attempt
    count, quarantine flag) instead of a ``result``.
    """

    status: str
    result: dict | None = None
    attempts: int = 1
    elapsed_s: float = 0.0
    error: dict | None = None
    #: Telemetry snapshot of the evaluation (None when collection is off).
    #: In parallel runs this is how a worker's trace rides back to the
    #: parent, which merges it into the process-wide trace.
    telemetry: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def quarantined(self) -> bool:
        return bool(self.error and self.error.get("quarantined"))


def _async_raise_timeout(thread_id: int, expired: threading.Event) -> None:
    """Raise :class:`_CellTimeout` asynchronously in ``thread_id``.

    ``expired`` guards the race between the timer firing and the
    protected block finishing: once the block's ``finally`` sets it, the
    exception is no longer injected.
    """
    if expired.is_set():
        return
    import ctypes

    ctypes.pythonapi.PyThreadState_SetAsyncExc(
        ctypes.c_ulong(thread_id), ctypes.py_object(_CellTimeout)
    )


@contextmanager
def _deadline(seconds: float | None):
    """Enforce a wall-clock budget on the enclosed block.

    On the main thread this arms SIGALRM (``signal.signal`` raises
    ``ValueError`` anywhere else); pool workers run tasks on their main
    thread, so both campaign dispatch paths use the hard timer.  Off the
    main thread (a caller evaluating cells on its own threads; ``repro
    serve`` arms no timeout) a :class:`threading.Timer` injects
    :class:`_CellTimeout` into the evaluating thread instead.  That
    fallback is *soft*: the exception lands at the next bytecode
    boundary, so a single long-blocking C call can overrun its budget (a
    chunked sleep or python-level loop cannot).  On platforms without SIGALRM the soft timer is also used.
    """
    if seconds is None:
        yield
        return
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        def _on_alarm(signum, frame):
            raise _CellTimeout()

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return

    expired = threading.Event()
    timer = threading.Timer(
        seconds,
        _async_raise_timeout,
        args=(threading.get_ident(), expired),
    )
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        expired.set()
        timer.cancel()


def _error_payload(exc: BaseException, attempts: int) -> dict:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
        "attempts": attempts,
        "quarantined": False,
    }


def _cell_label(cell: Cell) -> str:
    """Telemetry group label: one per (grid point, config) latency bucket."""
    return f"{cell.benchmark}-{cell.num_qubits}/{cell.config}"


def supervised_evaluate(
    cell: Cell, policy: RetryPolicy = DEFAULT_POLICY, prop_cache=None
) -> CellOutcome:
    """Evaluate one cell under timeout/retry/quarantine supervision.

    Transient errors (and timeouts) are retried up to
    ``policy.max_attempts`` with exponential backoff; fatal error types
    (:data:`FATAL_TYPES`) and exhausted retries quarantine the cell.
    Never raises on evaluation failure — the failure *is* the outcome.

    When telemetry is on, everything the evaluation records — plus this
    worker's one-time warmup cost, on its first cell — is captured on the
    outcome's ``telemetry`` snapshot for the parent to merge and persist.
    """
    with capture() as cap:
        if cap.collector is not None:
            cap.collector.merge_snapshot(_take_worker_warmup())
        with span("campaign.cell", group=_cell_label(cell)):
            outcome = _supervise(cell, policy, prop_cache)
    outcome.telemetry = cap.snapshot()
    return outcome


def _supervise(
    cell: Cell, policy: RetryPolicy, prop_cache=None
) -> CellOutcome:
    error: dict = {}
    status = "error"
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            counter("campaign.retries")
        t0 = time.perf_counter()
        try:
            with _deadline(policy.timeout_s):
                # Positional only when set: tests substitute single-arg
                # fakes for evaluate_cell, and the default path must keep
                # calling it exactly as before.
                if prop_cache is None:
                    result = evaluate_cell(cell)
                else:
                    result = evaluate_cell(cell, prop_cache)
        except _CellTimeout:
            status = "timeout"
            counter("campaign.timeouts")
            error = {
                "type": "CellTimeout",
                "message": (
                    f"cell exceeded its {policy.timeout_s}s wall-clock budget"
                ),
                "traceback": "",
                "attempts": attempt,
                "quarantined": False,
            }
        except FATAL_TYPES as exc:
            error = _error_payload(exc, attempt)
            error["quarantined"] = True
            counter("campaign.quarantines")
            return CellOutcome(
                status="error",
                error=error,
                attempts=attempt,
                elapsed_s=time.perf_counter() - t0,
            )
        except Exception as exc:
            status = "error"
            error = _error_payload(exc, attempt)
        else:
            return CellOutcome(
                status="ok",
                result=result,
                attempts=attempt,
                elapsed_s=time.perf_counter() - t0,
            )
        if attempt < policy.max_attempts:
            delay = policy.backoff_for(cell, attempt)
            if delay > 0:
                time.sleep(delay)
    error["quarantined"] = True
    counter("campaign.quarantines")
    return CellOutcome(
        status=status,
        error=error,
        attempts=policy.max_attempts,
        elapsed_s=time.perf_counter() - t0,
    )


def persist(
    store: ResultStore, cell: Cell, outcome: CellOutcome, fingerprint: str
) -> None:
    """Record one cell's outcome (campaign runs and serve simulate requests)."""
    store.put(
        cell,
        outcome.result,
        fingerprint=fingerprint,
        elapsed_s=outcome.elapsed_s,
        status=outcome.status,
        error=outcome.error,
        attempts=outcome.attempts,
        telemetry=outcome.telemetry,
    )


@dataclass
class _FailureTracker:
    """Counts quarantines and aborts the campaign past the threshold."""

    max_failures: int | None
    quarantined: int = 0

    def note(self, outcome: CellOutcome) -> None:
        if outcome.ok or not outcome.quarantined:
            return
        self.quarantined += 1
        if self.max_failures is not None and self.quarantined > self.max_failures:
            raise CampaignAbort(
                f"campaign aborted: {self.quarantined} cells quarantined "
                f"(--max-failures {self.max_failures}); all decided outcomes "
                "are stored — fix the cause and resume against the same store",
                quarantined=self.quarantined,
            )


# -- parallel plumbing ------------------------------------------------------

#: Pool breaks (worker deaths) one campaign or serve request survives;
#: past it a campaign finishes serially and a request answers
#: ``WorkerCrashed``.
MAX_POOL_RESPAWNS = 2

#: Env knob: ``REPRO_COLD_WORKERS=1`` disables the parent pre-warm and
#: makes every pool worker clear its (possibly fork-inherited) caches —
#: i.e. the pre-PR cold-start behavior.  Exists so CI and benchmarks can
#: measure the warm-fork win as an A/B on the same grid.
COLD_WORKERS_ENV = "REPRO_COLD_WORKERS"


def _cold_workers() -> bool:
    return os.environ.get(COLD_WORKERS_ENV, "") not in ("", "0")


def _clear_warm_caches() -> None:
    """Reset every per-process warm cache to the cold-start state."""
    from repro.pulses.library import _read_cache_file

    SHARED_PLAN_CACHE.clear()
    cached_topology.cache.clear()
    cached_device.cache.clear()
    cached_library.cache_clear()
    _cached_compiled.cache.clear()
    _cached_schedule.cache.clear()
    _read_cache_file.cache_clear()


#: Kinds whose cost *is* the scheduling analysis — pre-computing their
#: schedules in the parent would serialize the whole campaign, so the
#: parent pre-warm skips them (the plan cache still carries over).
_SCHED_DOMINANT_KINDS = ("exec_time", "couplings")


def _prewarm_parent(pending: list[Cell]) -> None:
    """Warm the shared caches in the parent before the pool forks.

    On fork-start platforms (Linux default) every worker inherits these
    caches at zero cost, which is what eliminates the per-worker
    plan-miss blowup (13 -> 39 at 4 workers on the bench grid).  Pulse
    libraries and devices are warmed for all cells; compile+schedule
    (which populates ``SHARED_PLAN_CACHE``) only for simulation-kind
    cells, where scheduling is warmup rather than the measured work —
    and deduplicated by schedule signature, so the parent schedules each
    distinct (circuit, topology, scheduler) once, not once per seed.
    """
    with span("campaign.prewarm"):
        for method in sorted({cell.method for cell in pending}):
            cached_library(method)
        for spec in {cell.device for cell in pending}:
            cached_device(spec)
        scheduled: set[tuple] = set()
        for cell in pending:
            if cell.kind in _SCHED_DOMINANT_KINDS:
                continue
            signature = (
                cell.benchmark,
                cell.num_qubits,
                cell.circuit_seed,
                cell.device.family,
                cell.device.rows,
                cell.device.cols,
                cell.scheduler,
                cell.zzx,
            )
            if signature not in scheduled:
                scheduled.add(signature)
                schedule_for_cell(cell)


def warm_pool(
    workers: int, methods: Iterable[str], cold: bool = False
) -> ProcessPoolExecutor:
    """The one fork-warm process pool, shared by campaigns and serve.

    Loads the pulse libraries in the *parent* so forked workers inherit
    them (and ``SHARED_PLAN_CACHE``) for free; under spawn starts a
    plan-cache snapshot rides the :func:`_warm_worker` initializer.
    ``cold=True`` (the :data:`COLD_WORKERS_ENV` A/B) skips the parent
    warm-up and has each worker clear what it inherited.
    """
    methods = tuple(sorted(set(methods)))
    snapshot = None
    if not cold:
        for method in methods:
            cached_library(method)
        if multiprocessing.get_start_method() != "fork":
            snapshot = SHARED_PLAN_CACHE.export()
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_warm_worker,
        initargs=(methods, snapshot, cold),
    )


#: Snapshot of this worker's one-time warmup cost, consumed by (attached
#: to) the first cell the worker evaluates.
_WORKER_WARMUP: dict | None = None


def _warm_worker(
    methods: tuple[str, ...],
    plan_snapshot: tuple | None = None,
    cold: bool = False,
) -> None:
    """Pool initializer: make this worker's caches as warm as possible.

    On fork platforms the caches arrive warm from the parent and the
    library loop below is a no-op lookup; on spawn platforms the shipped
    ``plan_snapshot`` seeds the plan cache and the libraries are built
    here.  ``cold=True`` (the :data:`COLD_WORKERS_ENV` A/B) instead
    clears everything inherited, reproducing pre-warm-fork behavior.
    """
    global _WORKER_WARMUP
    with capture() as cap:
        with span("campaign.worker_warmup"):
            if cold:
                _clear_warm_caches()
            elif plan_snapshot:
                SHARED_PLAN_CACHE.absorb(plan_snapshot)
            for method in methods:
                cached_library(method)
    _WORKER_WARMUP = cap.snapshot()


def _take_worker_warmup() -> dict | None:
    global _WORKER_WARMUP
    snap, _WORKER_WARMUP = _WORKER_WARMUP, None
    return snap


@dataclass
class CampaignResult:
    """Outcome of one :func:`run_campaign` call.

    ``records`` follows the order of the (deduplicated) input cells;
    ``computed``/``cached`` count fresh evaluations vs store hits.
    """

    cells: tuple[Cell, ...]
    records: list[dict]
    fingerprint: str
    computed: int = 0
    cached: int = 0
    failed: int = 0
    #: Effective worker count the dispatch decision settled on (1 = serial).
    workers: int = 1
    elapsed_s: float = 0.0
    #: Total wall time spent *inside* freshly computed cells (CPU-side
    #: work); the gap to ``elapsed_s`` is dispatch/spawn/warmup overhead.
    cell_seconds: float = 0.0
    #: What was asked for (``--workers``) before the cost model weighed in.
    requested_workers: int = 1
    #: ``"serial"`` or ``"parallel"`` — the executed mode.
    dispatch: str = "serial"
    #: One-line account of why the cost model picked that mode.
    dispatch_reason: str = ""
    _by_key: dict[str, dict] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._by_key:
            self._by_key = {r["key"]: r for r in self.records}

    def __getitem__(self, cell: Cell) -> dict:
        """The result payload for ``cell`` (KeyError when not part of the run)."""
        return self._by_key[cell_key(cell, self.fingerprint)]["result"]

    def failures(self) -> list[dict]:
        """The failure records of this run (empty when everything passed)."""
        return [r for r in self.records if record_status(r) != "ok"]

    @property
    def downgraded(self) -> bool:
        """True when parallelism was requested but the model chose serial."""
        return self.requested_workers > 1 and self.dispatch == "serial"

    @property
    def summary(self) -> str:
        failed = f", {self.failed} failed" if self.failed else ""
        return (
            f"{len(self.records)} cells: {self.computed} computed, "
            f"{self.cached} cached{failed} [workers={self.workers}, "
            f"{self.elapsed_s:.1f}s]"
        )

    @property
    def overhead_s(self) -> float:
        """Wall time beyond the ideal ``cell work / workers`` split.

        For serial runs this is the runner's own bookkeeping; for parallel
        runs it is dominated by pool spawn + per-worker cache warmup — the
        quantity that decides the serial-vs-parallel crossover.
        """
        ideal = self.cell_seconds / max(1, self.workers)
        return max(0.0, self.elapsed_s - ideal)

    @property
    def overhead_note(self) -> str:
        """One-line account of where non-evaluation wall time went."""
        return (
            f"parallel overhead {self.overhead_s:.1f}s "
            f"(wall {self.elapsed_s:.1f}s vs {self.cell_seconds:.1f}s cell "
            f"work across {self.workers} workers)"
        )


def run_campaign(
    cells,
    store: ResultStore | None = None,
    *,
    workers: int = 1,
    fingerprint: str | None = None,
    policy: RetryPolicy | None = None,
    dispatch: str = "auto",
) -> CampaignResult:
    """Evaluate every cell not already in ``store``; return ordered records.

    ``cells`` may be a :class:`SweepSpec` or any iterable of cells
    (duplicates are evaluated once).  ``store=None`` uses a throwaway
    in-memory store.  ``workers`` is a *request*: under
    ``dispatch="auto"`` the cost model compares predicted serial vs
    parallel wall time (calibrated from the store's recorded timings)
    and runs serially when fan-out would not pay — the decision lands on
    the result's ``dispatch``/``dispatch_reason``.  ``dispatch="serial"``
    / ``"parallel"`` force a mode (fault-injection harnesses need a real
    pool regardless of the model).  The parallel path pre-warms the
    shared caches in the parent (forked workers inherit them) and
    dispatches cells longest-job-first, appending each cell's record to
    the store as it completes.  ``policy`` configures supervision
    (timeout, retries, quarantine, abort threshold); cells that fail
    past their retry budget become durable failure records, not crashes.

    Raises :class:`CampaignAbort` when ``policy.max_failures`` is
    exceeded (everything decided so far is already stored).
    """
    if isinstance(cells, SweepSpec):
        cells = cells.cells()
    ordered: list[Cell] = []
    seen: set[Cell] = set()
    for cell in cells:
        if cell not in seen:
            seen.add(cell)
            ordered.append(cell)
    store = store if store is not None else ResultStore(None)
    fingerprint = fingerprint or library_fingerprint()
    policy = policy if policy is not None else DEFAULT_POLICY
    start = time.perf_counter()

    pending = store.pending(
        ordered, fingerprint, retry_quarantined=policy.retry_quarantined
    )
    calibration = CostCalibration.from_records(store.records())
    decision = decide_dispatch(
        pending, workers, calibration=calibration, dispatch=dispatch
    )
    counter(f"campaign.dispatch.{decision.mode}")
    tracker = _FailureTracker(policy.max_failures)
    if decision.serial:
        _run_serial(pending, store, fingerprint, policy, tracker)
    else:
        _run_parallel(
            pending, store, decision, fingerprint, policy, tracker,
            calibration=calibration,
        )

    records = []
    failed = 0
    pending_keys = {cell_key(cell, fingerprint) for cell in pending}
    cell_seconds = 0.0
    for cell in ordered:
        record = store.get(cell_key(cell, fingerprint))
        if record is None:  # pragma: no cover - defensive
            raise RuntimeError(f"campaign finished but cell missing: {cell}")
        if record_status(record) != "ok":
            failed += 1
        if record["key"] in pending_keys:
            cell_seconds += record.get("elapsed_s") or 0.0
        records.append(record)
    return CampaignResult(
        cells=tuple(ordered),
        records=records,
        fingerprint=fingerprint,
        computed=len(pending),
        cached=len(ordered) - len(pending),
        failed=failed,
        workers=decision.workers,
        elapsed_s=time.perf_counter() - start,
        cell_seconds=cell_seconds,
        requested_workers=max(1, workers),
        dispatch=decision.mode,
        dispatch_reason=decision.reason,
    )


def _run_serial(
    pending,
    store: ResultStore,
    fingerprint: str,
    policy: RetryPolicy,
    tracker: _FailureTracker,
) -> None:
    for cell in pending:
        outcome = supervised_evaluate(cell, policy)
        # Persist before the abort check: an aborting campaign keeps the
        # failure record that pushed it over the threshold.
        persist(store, cell, outcome, fingerprint)
        tracker.note(outcome)


def _run_parallel(
    pending: list[Cell],
    store: ResultStore,
    decision: DispatchDecision,
    fingerprint: str,
    policy: RetryPolicy,
    tracker: _FailureTracker,
    calibration: CostCalibration | None = None,
) -> None:
    """Per-cell pool dispatch with broken-pool recovery.

    Cells are submitted in longest-job-first order (work stealing: pool
    workers pull the next cell as they finish, so the cheap tail fills
    in around the expensive heads).  A :class:`BrokenProcessPool`
    (worker SIGKILLed, OOMed, segfaulted) loses only the results that
    had not been drained yet; the pool is respawned and the cells
    without a stored outcome re-dispatched.  After
    :data:`MAX_POOL_RESPAWNS` breaks the remainder runs serially —
    progress beats parallelism.
    """
    cold = _cold_workers()
    if not cold:
        _prewarm_parent(pending)
    # LJF ordering only changes *when* a cell is evaluated; records are
    # content-keyed, so store contents are identical under any order.
    todo: dict[Cell, None] = dict.fromkeys(
        order_longest_first(pending, calibration)
    )
    methods = {cell.method for cell in pending}
    breaks = 0
    while todo:
        cells = list(todo)
        with span("campaign.pool_spawn"):
            pool = warm_pool(min(decision.workers, len(cells)), methods, cold)
        broken = False
        try:
            futures = {
                pool.submit(supervised_evaluate, cell, policy): cell
                for cell in cells
            }
            submitted = {future: time.perf_counter() for future in futures}
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        # This future died with the pool; siblings in the
                        # same batch may still hold results — drain them.
                        broken = True
                        continue
                    cell = futures[future]
                    # The worker's trace rides back on the outcome: fold it
                    # into the parent's process-wide trace, and record the
                    # dispatch-to-result time the cell did *not* spend
                    # evaluating (queue wait + spawn/warmup + transfer).
                    merge_snapshot(outcome.telemetry)
                    observe(
                        "campaign.queue_wait",
                        max(
                            0.0,
                            time.perf_counter()
                            - submitted[future]
                            - outcome.elapsed_s,
                        ),
                    )
                    persist(store, cell, outcome, fingerprint)
                    tracker.note(outcome)
                    del todo[cell]
                if broken:
                    break
        except BrokenProcessPool:
            # The pool can also break at submit time (e.g. a worker dies
            # while the initializer runs); treat it like any other break.
            broken = True
        finally:
            # On a break or an abort, drop queued work; completed futures
            # were already drained and persisted above.
            pool.shutdown(wait=False, cancel_futures=True)
        if broken:
            breaks += 1
            if breaks > MAX_POOL_RESPAWNS:
                _run_serial(list(todo), store, fingerprint, policy, tracker)
                return
