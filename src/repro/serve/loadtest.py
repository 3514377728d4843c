"""Load-test harness behind ``repro bench-serve``.

Boots an in-process daemon on an ephemeral port, fires a mixed
compile workload (device x circuit x seed round-robin) from N client
threads, and reports client-observed latency percentiles (p50/p90/p99)
and cache statistics.

Two honesty checks ride along:

- **equivalence** — every distinct workload's served digest is compared
  against a fresh-cache in-process compile
  (:func:`one_shot`), the same schedule a one-shot CLI run emits; a
  mismatch fails the run, because a serving layer that answers fast but
  differently is worse than no serving layer;
- **cold baseline** — optional timed subprocess runs of the one-shot
  path (``python -m repro.serve.loadtest <device> <circuit> <seed>``),
  i.e. what each request costs when every request pays process start,
  imports, topology build and a cold plan cache.  The reported speedup
  is that per-request cost over the warm served p50.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ReproServer, ServeConfig

DEFAULT_DEVICES = ("eagle", "osprey")
DEFAULT_CIRCUITS = ("qaoa", "qv")


def percentile(values, q: float) -> float:
    """Exact linear-interpolation percentile of a non-empty sequence."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return float(ordered[low] * (1 - frac) + ordered[high] * frac)


def _summary(latencies) -> dict:
    return {
        "n": len(latencies),
        "p50_s": round(percentile(latencies, 0.50), 4),
        "p90_s": round(percentile(latencies, 0.90), 4),
        "p99_s": round(percentile(latencies, 0.99), 4),
        "mean_s": round(sum(latencies) / len(latencies), 4),
        "max_s": round(max(latencies), 4),
    }


def one_shot(device: str, circuit: str, seed: int = 0) -> dict:
    """One fresh-cache compile, exactly as a one-shot CLI process runs it.

    Used in-process for equivalence digests and as the body of the cold
    per-request baseline subprocess (where the process start, imports and
    topology build are part of the measured cost).
    """
    from repro.scheduling.plan_cache import SuppressionPlanCache
    from repro.scheduling.scalebench import bench_circuit, scale_context
    from repro.scheduling.zzxsched import zzx_schedule
    from repro.serve.protocol import schedule_digest

    topology, requirement = scale_context(device)
    compiled = bench_circuit(topology, circuit, seed=seed)
    t0 = time.perf_counter()
    schedule = zzx_schedule(
        compiled, topology, requirement, None, SuppressionPlanCache()
    )
    return {
        "device": device,
        "circuit": circuit,
        "seed": seed,
        "digest": schedule_digest(schedule),
        "compile_s": time.perf_counter() - t0,
    }


def cold_baseline(device: str, circuit: str, seed: int = 0, samples: int = 3) -> dict:
    """Wall-clock of per-request cold processes running :func:`one_shot`."""
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve.loadtest",
             device, circuit, str(seed)],
            env=env,
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(
                f"cold baseline subprocess failed:\n{proc.stderr[-2000:]}"
            )
        times.append(elapsed)
    return {
        "device": device,
        "circuit": circuit,
        "samples": samples,
        "p50_s": round(percentile(times, 0.50), 4),
        "min_s": round(min(times), 4),
        "max_s": round(max(times), 4),
    }


def run_load_test(
    *,
    requests: int = 200,
    clients: int = 4,
    devices=DEFAULT_DEVICES,
    circuits=DEFAULT_CIRCUITS,
    seeds: int = 1,
    config: ServeConfig | None = None,
    baseline_samples: int = 0,
    check: bool = True,
) -> dict:
    """Run the harness end to end; returns the JSON-able report."""
    combos = [
        (device, circuit, seed)
        for device in devices
        for circuit in circuits
        for seed in range(max(1, seeds))
    ]
    workload = [combos[i % len(combos)] for i in range(requests)]

    config = config or ServeConfig(port=0)
    server = ReproServer(config)
    thread = server.start_background()
    client = ServeClient(config.host, server.port)
    client.wait_ready()

    report: dict = {
        "requests": requests,
        "clients": clients,
        "backend": config.backend,
        "workers": config.workers,
        "devices": list(devices),
        "circuits": list(circuits),
        "seeds": seeds,
        "combos": len(combos),
    }
    try:
        # Warmup: first request per combo pays the cold plan-cache miss
        # (and, for the first combo per device, the topology build);
        # measured separately because steady state is what serving is for.
        t0 = time.perf_counter()
        served: dict[tuple, dict] = {}
        for combo in combos:
            served[combo] = client.compile(*combo)
        report["warmup_s"] = round(time.perf_counter() - t0, 3)

        latencies: list[float] = []
        by_combo: dict[tuple, list[float]] = {combo: [] for combo in combos}
        service_s: list[float] = []
        errors: list[str] = []
        lock = threading.Lock()

        def worker(indices):
            # One keep-alive client (and so one connection) per thread.
            mine = ServeClient(config.host, server.port)
            try:
                for i in indices:
                    combo = workload[i]
                    t_start = time.perf_counter()
                    try:
                        response = mine.compile(*combo)
                    except ServeError as exc:
                        with lock:
                            errors.append(f"{combo}: {exc}")
                        continue
                    elapsed = time.perf_counter() - t_start
                    with lock:
                        latencies.append(elapsed)
                        by_combo[combo].append(elapsed)
                        service_s.append(response.get("elapsed_s", 0.0))
            finally:
                mine.close()

        threads = [
            threading.Thread(
                target=worker,
                args=(range(n, requests, clients),),
                name=f"loadtest-{n}",
            )
            for n in range(clients)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report["wall_s"] = round(time.perf_counter() - t0, 3)
        report["ok"] = len(latencies)
        report["errors"] = errors
        if latencies:
            report["latency"] = _summary(latencies)
            report["service_time"] = _summary(service_s)
            report["by_combo"] = {
                "/".join(map(str, combo)): _summary(values)
                for combo, values in by_combo.items()
                if values
            }
            report["throughput_rps"] = round(
                len(latencies) / report["wall_s"], 1
            )
        stats = client.stats()
        report["server"] = stats

        if check:
            mismatches = []
            for combo, response in served.items():
                direct = one_shot(*combo)
                if direct["digest"] != response["digest"]:
                    mismatches.append(
                        {
                            "combo": "/".join(map(str, combo)),
                            "served": response["digest"],
                            "one_shot": direct["digest"],
                        }
                    )
            report["equivalence"] = {
                "checked": len(served),
                "mismatches": mismatches,
            }
    finally:
        try:
            client.shutdown()
        except ServeError:
            server.request_stop()
        client.close()
        thread.join(timeout=15.0)

    if baseline_samples > 0:
        base_combo = combos[0]
        report["baseline"] = cold_baseline(
            *base_combo, samples=baseline_samples
        )
        base_key = "/".join(map(str, base_combo))
        warm = report.get("by_combo", {}).get(base_key)
        if warm and warm["p50_s"] > 0:
            report["speedup_vs_cold"] = round(
                report["baseline"]["p50_s"] / warm["p50_s"], 1
            )
    return report


def render(report: dict) -> str:
    """Human-readable summary of a load-test report."""
    lines = [
        f"serve load test: {report['requests']} requests, "
        f"{report['clients']} clients, {report['combos']} workload combos "
        f"({report.get('backend', 'thread')} backend, "
        f"{report.get('workers', '?')} workers)",
        f"warmup {report.get('warmup_s', 0):.3f}s, "
        f"run {report.get('wall_s', 0):.3f}s "
        f"({report.get('throughput_rps', 0)} req/s), "
        f"ok {report.get('ok', 0)}, errors {len(report.get('errors', []))}",
    ]
    latency = report.get("latency")
    if latency:
        lines.append(
            f"latency p50 {latency['p50_s']:.4f}s  "
            f"p90 {latency['p90_s']:.4f}s  p99 {latency['p99_s']:.4f}s  "
            f"max {latency['max_s']:.4f}s"
        )
    for combo, summary in sorted(report.get("by_combo", {}).items()):
        lines.append(
            f"  {combo:<24} p50 {summary['p50_s']:.4f}s  "
            f"p99 {summary['p99_s']:.4f}s  (n={summary['n']})"
        )
    server = report.get("server", {})
    if server:
        plan = server.get("plan_cache", {})
        lines.append(
            f"served {server.get('requests', 0)} requests, "
            f"plan cache {plan.get('hits', 0)} hits / "
            f"{plan.get('misses', 0)} misses"
        )
    equivalence = report.get("equivalence")
    if equivalence:
        status = (
            "all digests match one-shot compiles"
            if not equivalence["mismatches"]
            else f"{len(equivalence['mismatches'])} DIGEST MISMATCHES"
        )
        lines.append(
            f"equivalence: {equivalence['checked']} combos checked, {status}"
        )
    baseline = report.get("baseline")
    if baseline:
        lines.append(
            f"cold per-request baseline ({baseline['device']}/"
            f"{baseline['circuit']}): p50 {baseline['p50_s']:.3f}s -> "
            f"warm serve speedup {report.get('speedup_vs_cold', '?')}x"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # cold-baseline subprocess entry
    if len(sys.argv) != 4:
        print(
            "usage: python -m repro.serve.loadtest <device> <circuit> <seed>",
            file=sys.stderr,
        )
        raise SystemExit(2)
    out = one_shot(sys.argv[1], sys.argv[2], int(sys.argv[3]))
    print(json.dumps(out))
