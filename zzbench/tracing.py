"""Per-layer tracing of the ``repro`` package, installed from outside.

Nothing under ``src/`` is edited.  :func:`install` imports the modules on
the benchmark's timed paths, wraps each layer's public functions and
methods, and swaps every reference to the original — the defining module
attribute *and* each ``from ... import`` copy held by another ``repro``
module — for the wrapper.  Modules imported later pick the wrapper up
from the defining module.

Each wrapper records one span per call into a per-thread aggregate:
``calls``, ``busy_s`` (inclusive) and ``child_s`` (time covered by the
traced spans it caused), so ``self_s = busy_s - child_s``.  A few layers
also count work: bytes touched by ``apply_gate``, cache lookups and hits.

Run as a script, this module is the traced launcher of a ``repro``
entry point::

    python zzbench/tracing.py --snapshots DIR [--plant-slowdown] \
        -- serve --port 0

It installs the wrappers, starts a thread that writes a snapshot to
``DIR/snap-<n>.json`` for every line read on stdin, then runs
``python -m repro`` with the remaining arguments.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import statistics
import sys
import threading
from time import perf_counter

#: Modules imported before wrapping, so their ``from ... import`` copies
#: exist when references are swapped.
MODULES = (
    "repro.sim.statevector",
    "repro.sim.trotter",
    "repro.sim.trajectories",
    "repro.runtime.binding",
    "repro.runtime.ideal",
    "repro.runtime.executor",
    "repro.runtime.backends",
    "repro.campaigns.runner",
    "repro.circuits.compile",
    "repro.pulses.library",
    "repro.device.device",
    "repro.graphs.suppression",
    "repro.scheduling.plan_cache",
    "repro.scheduling.zzxsched",
    "repro.scheduling.scalebench",
    "repro.serve.protocol",
    "repro.serve.service",
    "repro.cli",
)

#: The span the self-test's planted slowdown doubles.
PLANT_TARGET = "sim.apply_gate"

#: span name -> (module, attribute path).  Names are ``<layer>.<function>``
#: with the layer named after its ``repro`` package.
TARGETS = {
    "sim.apply_gate": ("repro.sim.statevector", "apply_gate"),
    "sim.evolve_layer": ("repro.sim.trotter", "TrotterEngine.evolve_layer"),
    "runtime.execute": ("repro.runtime.executor", "execute"),
    "runtime.drives_for_layer": ("repro.runtime.binding", "drives_for_layer"),
    "runtime.ideal_state": ("repro.runtime.ideal", "ideal_schedule_state"),
    "campaigns.run_campaign": ("repro.campaigns.runner", "run_campaign"),
    "campaigns.evaluate_cell": ("repro.campaigns.runner", "evaluate_cell"),
    "circuits.compile_circuit": ("repro.circuits.compile", "compile_circuit"),
    "pulses.build_library": ("repro.pulses.library", "build_library"),
    "device.make_device": ("repro.device.device", "make_device"),
    "graphs.alpha_optimal_suppression": (
        "repro.graphs.suppression", "alpha_optimal_suppression",
    ),
    "scheduling.plan_cache": (
        "repro.scheduling.plan_cache", "SuppressionPlanCache.plan",
    ),
    "scheduling.zzx_schedule": ("repro.scheduling.zzxsched", "zzx_schedule"),
    "scheduling.bench_circuit": ("repro.scheduling.scalebench", "bench_circuit"),
    "serve.handle": ("repro.serve.service", "CompileService.handle"),
    "serve.schedule_digest": ("repro.serve.protocol", "schedule_digest"),
}

# Aggregate slots: calls, busy_s, child_s, then per-layer work counters.
CALLS, BUSY, CHILD, WORK, HITS, EVICT = range(6)


class Tracer:
    """Per-thread span aggregates, merged on :meth:`snapshot`."""

    def __init__(self):
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def snapshot(self) -> dict:
        """``{span: [calls, busy_s, child_s, work, hits, evictions]}``."""
        out: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, row in list(table.items()):
                merged = out.setdefault(name, [0, 0.0, 0.0, 0, 0, 0])
                for i, value in enumerate(row):
                    merged[i] += value
        return out

    def wrap(self, name: str, fn, work=None):
        """``fn`` recording one ``name`` span per call.

        ``work = (at_entry, at_exit)``: ``at_exit(args, result, entry)``
        returns extra counters to add, ``entry`` being what
        ``at_entry(args)`` returned (``at_entry`` may be None).
        """
        at_entry, at_exit = work or (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = self._state()
            entry = at_entry(args) if at_entry else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0.0, 0.0, 0, 0, 0]
                row[CALLS] += 1
                row[BUSY] += elapsed
                row[CHILD] += child
            if at_exit:
                for slot, value in zip((WORK, HITS, EVICT), at_exit(args, result, entry)):
                    row[slot] += value
            return result

        return traced


def _apply_gate_bytes(args, result, entry):
    # Bytes the kernel reads and writes: the input and output state.
    return (args[0].nbytes + result.nbytes,)


def _cache_state(args):
    return args[0].hits, args[0].evictions


def _cache_hits(args, result, entry):
    hits, evictions = _cache_state(args)
    return (1, hits - entry[0], evictions - entry[1])


def _failed_cells(args, result, entry):
    return (result.failed,)


WORK_COUNTERS = {
    "sim.apply_gate": (None, _apply_gate_bytes),
    "scheduling.plan_cache": (_cache_state, _cache_hits),
    "campaigns.run_campaign": (None, _failed_cells),
}


def _slowed(fn):
    """``fn`` run twice per call: a planted 2x slowdown."""

    @functools.wraps(fn)
    def slowed(*args, **kwargs):
        fn(*args, **kwargs)
        return fn(*args, **kwargs)

    return slowed


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(trace: bool = True, plant_slowdown: bool = False):
    """Wrap every target; return the :class:`Tracer` (None if not tracing).

    ``plant_slowdown`` makes :data:`PLANT_TARGET` run twice per call.
    With ``trace=False`` only that target is wrapped, without span
    bookkeeping.
    """
    for module_name in MODULES:
        importlib.import_module(module_name)
    tracer = Tracer() if trace else None
    swaps = {}
    for name, (module_name, path) in TARGETS.items():
        slow = plant_slowdown and name == PLANT_TARGET
        if not (trace or slow):
            continue
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        wrapped = _slowed(original) if slow else original
        if trace:
            wrapped = tracer.wrap(name, wrapped, WORK_COUNTERS.get(name))
        setattr(owner, attr, wrapped)
        swaps[id(original)] = (original, wrapped)
    # ``from ... import`` copies: any repro module attribute that *is* an
    # original function now points at its wrapper.
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            found = swaps.get(id(value))
            if found is not None and found[0] is value:
                setattr(module, attr, found[1])
    return tracer


def write_snapshot(tracer: Tracer, path: str) -> None:
    """Atomically write the tracer's snapshot as JSON to ``path``."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(tracer.snapshot(), fh)
    os.replace(tmp, path)


def wrapper_cost_s(calls: int = 20000, blocks: int = 7) -> float:
    """Median extra time one traced call costs over the bare call.

    Each block times a loop of bare calls and then the same loop through
    a wrapper nested in an outer span, back to back, so a drift of host
    speed between blocks mostly cancels.
    """
    tracer = Tracer()

    def bare(x):
        return x

    def loop(fn):
        t0 = perf_counter()
        for i in range(calls):
            fn(i)
        return perf_counter() - t0

    wrapped, outer = tracer.wrap("bare", bare), tracer.wrap("loop", loop)
    costs = [(outer(wrapped) - loop(bare)) / calls for _ in range(blocks)]
    return statistics.median(costs)


def _serve_snapshots(tracer: Tracer, directory: str) -> None:
    # One snapshot per stdin line; the file appears atomically when done.
    for count, _ in enumerate(sys.stdin):
        write_snapshot(tracer, os.path.join(directory, f"snap-{count}.json"))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--snapshots", help="directory for trace snapshots")
    parser.add_argument("--plant-slowdown", action="store_true")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    tracer = install(trace=bool(opts.snapshots), plant_slowdown=opts.plant_slowdown)
    if tracer is not None:
        threading.Thread(
            target=_serve_snapshots, args=(tracer, opts.snapshots), daemon=True
        ).start()
    import runpy

    sys.argv = ["repro", *args]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
