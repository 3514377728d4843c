"""The repository benchmark: two closed-loop workloads, timed from outside.

Usage (from the repository root)::

    python3 zzbench/run.py --workload fig20-sweep --seed 1 --seconds 50 --trace 0

One single-threaded load process drives one program process over one
connection (stdin/stdout pipes for the sweeps, one keep-alive HTTP
connection for ``repro serve``), sends the next op only after the
previous answer, times every call and checks every answer against
``expected/``.

``--trace 0`` prints the end-to-end metrics; ``setup_s`` is the median
of three launches, each timed from process start to the answer to its
first warm-up op.  ``--trace 1`` runs the workload traced and prints the
per-layer metrics (per timed op unless named per process) plus the
tracing overhead.  The last stdout line is the result object; the line
before it is the run's detail (host record, calibration, samples).

``--ops N`` replaces the timed window with exactly N timed ops (the
count-determinism check); ``--expected DIR`` and ``--plant-slowdown``
(a 2x slowdown around ``sim.apply_gate``) exist for the self-test.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import host
import tracing
import workloads
from tracing import BUSY, CALLS, CHILD, EVICT, HITS, WORK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 3
#: Every run ends, result or not, well inside 180 seconds.
WATCHDOG_S = 170

# The load process and every program process it starts run with BLAS
# and OpenMP pools pinned to one thread (set before numpy is imported).
for _var in host.BLAS_THREAD_VARS:
    os.environ[_var] = "1"


class ProgramError(RuntimeError):
    """The program process died, hung up or could not start."""


def program_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_TELEMETRY", None)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(HERE)))
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _log_tail(path: Path) -> str:
    try:
        return path.read_text(errors="replace")[-2000:]
    except OSError:
        return ""


class Program:
    """One program process; subclasses speak its protocol."""

    def __init__(self, cmd, work: Path, stdin):
        self.log_path = work / "program.log"
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                cmd, stdin=stdin, stdout=subprocess.PIPE, stderr=log,
                env=program_env(), cwd=ROOT,
            )

    def fail(self, what: str):
        raise ProgramError(f"{what}; program log:\n{_log_tail(self.log_path)}")

    def peak_rss_mb(self) -> float:
        """VmHWM of the program process and all its descendants."""
        total_kb, pending = 0, [self.proc.pid]
        while pending:
            pid = pending.pop()
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                for task in Path(f"/proc/{pid}/task").iterdir():
                    pending += [int(c) for c in (task / "children").read_text().split()]
            except OSError:
                continue
        return total_kb / 1024.0

    def close(self) -> None:
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


class SweepProgram(Program):
    def __init__(self, work: Path, trace: bool, slowdown: bool):
        cmd = [sys.executable, str(HERE / "sweep_program.py")]
        cmd += ["--trace"] if trace else []
        cmd += ["--plant-slowdown"] if slowdown else []
        super().__init__(cmd, work, subprocess.PIPE)

    def call(self, op: dict) -> dict:
        try:
            self.proc.stdin.write((json.dumps(op) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.fail("sweep program exited")
        line = self.proc.stdout.readline()
        if not line:
            self.fail("sweep program exited")
        return json.loads(line)

    def snapshot(self) -> dict:
        return self.call({"op": "snapshot"})["spans"]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        super().close()


class ServeProgram(Program):
    """``python -m repro serve --port 0`` with its default flags."""

    def __init__(self, work: Path, trace: bool, slowdown: bool):
        args = ["serve", "--port", "0"]
        self.snap_dir = work / "snapshots"
        self.snaps = 0
        if trace or slowdown:
            cmd = [sys.executable, str(HERE / "tracing.py")]
            if trace:
                self.snap_dir.mkdir(exist_ok=True)
                cmd += ["--snapshots", str(self.snap_dir)]
            cmd += ["--plant-slowdown"] if slowdown else []
            cmd += ["--", *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        super().__init__(
            cmd, work, subprocess.PIPE if trace else subprocess.DEVNULL
        )
        try:
            line = self.proc.stdout.readline().decode()
            if "listening on" not in line:
                self.fail(f"serve did not start: {line!r}")
            port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def _post(self, path: str, payload: dict) -> dict:
        body = json.dumps(payload).encode()
        try:
            self.conn.request(
                "POST", path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self.conn.getresponse()
            return json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.fail(f"request to serve failed: {exc!r}")

    def call(self, op: dict) -> dict:
        return {"answers": [self._post("/request", r) for r in op["requests"]]}

    def snapshot(self) -> dict:
        path = self.snap_dir / f"snap-{self.snaps}.json"
        self.snaps += 1
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        deadline = time.monotonic() + 30
        while not path.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.fail("no trace snapshot from serve")
            time.sleep(0.005)
        return json.loads(path.read_text())

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self._post("/shutdown", {})
            except ProgramError:
                pass
        self.conn.close()
        if self.proc.stdin:
            self.proc.stdin.close()
        super().close()


def start_program(workload: str, work: Path, trace: bool, slowdown: bool) -> Program:
    cls = ServeProgram if workload == "serve-compile" else SweepProgram
    return cls(work, trace, slowdown)


class Tally:
    """Checks answers; counts attempted and failed ops."""

    def __init__(self, workload: str, expected: dict):
        self.workload, self.expected = workload, expected
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def check(self, op: dict, answer: dict) -> None:
        self.attempted += 1
        problems = workloads.check_answer(self.workload, op, answer, self.expected)
        if problems:
            self.failed += 1
            self.problems += problems[:3]


def run_phase(workload, ops, tally, opts, work, *, trace, seconds, launches):
    """Launch, warm up and run one timed window; returns its samples."""
    setups = []
    program = None
    try:
        for launch in range(launches):
            t0 = time.perf_counter()
            program = start_program(workload, work, trace, opts.plant_slowdown)
            answer = program.call(ops[0])
            setups.append(time.perf_counter() - t0)
            tally.check(ops[0], answer)
            if launch < launches - 1:
                program.close()
        position = workloads.WARMUP_OPS[workload]
        for op in ops[1:position]:
            tally.check(op, program.call(op))
        before = program.snapshot() if trace else None
        latencies = []
        cpu_before, steal_before = host.cpu_s(program.proc.pid), host.steal_s()
        rss = None
        start = time.perf_counter()
        while True:
            if position >= len(ops):
                raise ProgramError(f"{workload} input pool exhausted")
            op = ops[position]
            position += 1
            t0 = time.perf_counter()
            answer = program.call(op)
            latencies.append(time.perf_counter() - t0)
            tally.check(op, answer)
            if len(latencies) == workloads.RSS_AFTER_OPS[workload]:
                rss = program.peak_rss_mb()
            if opts.ops:
                if len(latencies) >= opts.ops:
                    break
            elif time.perf_counter() - start >= seconds:
                break
        window = time.perf_counter() - start
        cpu_after, steal_after = host.cpu_s(program.proc.pid), host.steal_s()
        after = program.snapshot() if trace else None
        if rss is None:  # fewer timed ops than RSS_AFTER_OPS
            rss = program.peak_rss_mb()
    finally:
        if program is not None:
            program.close()
    return {
        "setups": setups,
        "latencies": latencies,
        "window_s": window,
        "window_program_cpu_s": _difference(cpu_after, cpu_before),
        "window_steal_s": _difference(steal_after, steal_before),
        "peak_rss_mb": rss,
        "before": before,
        "after": after,
    }


def _difference(after, before):
    return None if after is None or before is None else after - before


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(phase: dict, tally: Tally) -> dict:
    lat = phase["latencies"]
    return {
        "ops_per_s": (len(lat) / phase["window_s"], "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (percentile(lat, 90), "s"),
        "setup_s": (statistics.median(phase["setups"]), "s"),
        "peak_rss_mb": (phase["peak_rss_mb"], "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def per_layer(traced: dict, wrapper_cost_s: float) -> dict:
    """Per-layer metrics of the traced phase (per timed op by default).

    ``wrapper_cost_s`` is the measured cost of one traced call over the
    bare call; ``trace.overhead_frac`` is that cost times the traced
    calls of the window, as a share of the window.
    """
    n = len(traced["latencies"])
    before, after = traced["before"], traced["after"]
    zero = [0, 0.0, 0.0, 0, 0, 0]

    def delta(name):
        a, b = after.get(name, zero), before.get(name, zero)
        return [x - y for x, y in zip(a, b)]

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def span(name, *fields):
        row = delta(name)
        for field in fields:
            if field == "calls":
                put(f"{name}.calls", row[CALLS] / n, "count")
            elif field == "busy_s":
                put(f"{name}.busy_s", row[BUSY] / n, "s")
            elif field == "self_s":
                put(f"{name}.self_s", (row[BUSY] - row[CHILD]) / n, "s")

    def ratio(hits, lookups):
        return hits / lookups if lookups else 0.0

    span("sim.apply_gate", "calls", "self_s")
    put("sim.apply_gate.bytes_computed", delta("sim.apply_gate")[WORK] / n, "B")
    span("sim.evolve_layer", "calls", "busy_s", "self_s")
    span("runtime.execute", "calls", "busy_s", "self_s")
    span("runtime.drives_for_layer", "calls", "busy_s")
    span("runtime.ideal_state", "busy_s")
    campaign, cells = delta("campaigns.run_campaign"), delta("campaigns.evaluate_cell")
    put("campaigns.run_campaign.busy_s", campaign[BUSY] / n, "s")
    put("campaigns.overhead_s", (campaign[BUSY] - cells[BUSY]) / n, "s")
    put("campaigns.cells", cells[CALLS] / n, "count")
    put("campaigns.cells_failed", campaign[WORK] / n, "count")
    span("scheduling.zzx_schedule", "calls", "busy_s", "self_s")
    span("scheduling.bench_circuit", "busy_s")
    plans = delta("scheduling.plan_cache")
    put("scheduling.plan_cache.lookups", plans[CALLS] / n, "count")
    put("scheduling.plan_cache.hit_ratio", ratio(plans[HITS], plans[CALLS]), "ratio")
    put("scheduling.plan_cache.evictions", plans[EVICT] / n, "count")
    span("serve.handle", "busy_s")
    span("serve.schedule_digest", "busy_s")
    client_s = sum(traced["latencies"])
    handle = delta("serve.handle")[BUSY]
    put("serve.front_s", (client_s - handle) / n if handle else 0.0, "s")
    # Layers whose work lands in set-up (Algorithm 1 included: every plan
    # of a workload is solved by its first op), summed over the traced
    # process's whole life.
    put(
        "graphs.alpha_optimal_suppression.calls",
        after.get("graphs.alpha_optimal_suppression", zero)[CALLS], "count",
    )
    for name in (
        "graphs.alpha_optimal_suppression", "circuits.compile_circuit",
        "pulses.build_library", "device.make_device",
    ):
        put(f"{name}.busy_s", after.get(name, zero)[BUSY], "s")
    covered = sum(delta(name)[BUSY] - delta(name)[CHILD] for name in after)
    put("trace.unattributed_frac", 1.0 - covered / client_s, "ratio")
    calls = sum(delta(name)[CALLS] for name in after)
    put("trace.overhead_frac", calls * wrapper_cost_s / traced["window_s"], "ratio")
    return out


def check_program() -> str | None:
    """Why the program cannot run from this directory (None if it can)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no repro package under {ROOT / 'src'}"
    return None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="timed ops instead of seconds")
    parser.add_argument("--expected", type=Path, default=None)
    parser.add_argument(
        "--plant-slowdown", action="store_true", help="run sim.apply_gate twice per call"
    )
    return parser.parse_args(argv)


def _watchdog(signum, frame):
    raise ProgramError(f"run exceeded {WATCHDOG_S}s")


def _terminated(signum, frame):
    # Unwind through run_phase's ``finally`` so the program is stopped too.
    raise ProgramError(f"terminated by signal {signum}")


def main(argv=None) -> int:
    opts = parse_args(argv)
    problem = check_program()
    if problem:
        print(f"zzbench: cannot run: {problem}", file=sys.stderr)
        return 2
    expected = workloads.load_expected(opts.workload, opts.expected)
    ops = workloads.op_inputs(opts.workload, opts.seed)
    work = HERE / "_work" / f"{opts.workload}-{opts.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _watchdog)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(WATCHDOG_S)
    # Byte-compile first, so no launch pays the first-run .pyc compile.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        check=True, env=program_env(), stdout=subprocess.DEVNULL,
    )
    host_before = host.host_record()
    calibration_before = host.calibration_s()
    tally = Tally(opts.workload, expected)
    wrapper_cost = None
    try:
        phase = run_phase(
            opts.workload, ops, tally, opts, work, trace=bool(opts.trace),
            seconds=opts.seconds, launches=1 if opts.trace else SETUP_LAUNCHES,
        )
        if opts.trace:
            wrapper_cost = tracing.wrapper_cost_s()
            metrics = per_layer(phase, wrapper_cost)
        else:
            metrics = end_to_end(phase, tally)
    except ProgramError as exc:
        print(f"zzbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    detail = {
        "workload": opts.workload,
        "seed": opts.seed,
        "trace": opts.trace,
        "host": {**host_before, "loadavg_after": list(os.getloadavg())},
        "calibration_s": {"before": calibration_before, "after": host.calibration_s()},
        "wrapper_cost_s": wrapper_cost,
        "ops": len(phase["latencies"]),
        "window_s": phase["window_s"],
        "window_program_cpu_s": phase["window_program_cpu_s"],
        "window_steal_s": phase["window_steal_s"],
        "setup_s": phase["setups"],
        "latencies_s": phase["latencies"],
        "problems": tally.problems[:20],
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
