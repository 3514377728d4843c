"""Self-test of the benchmark itself (about four minutes on two cores).

Usage (from the repository root)::

    python3 zzbench/selftest.py

Checks, each by running ``run.py`` from the repository root:

1. a directory holding only ``BENCHMARK.json`` and the benchmark files
   (no program) exits non-zero and prints no result;
2. a planted wrong expected output drives ``ok_frac`` below 1 and
   ``correct`` to false (``fig20-sweep`` and ``serve-compile``);
3. a planted 2x slowdown around ``sim.apply_gate`` raises
   ``sim.apply_gate.self_s`` and lowers ``ops_per_s`` beyond its bound on
   ``fig20-sweep``, while ``serve-compile`` stays within its bounds
   (medians of three alternating pairs: the host's drift between two
   12-s runs alone moved serve's p50 by a third);
4. count determinism: two traced runs of one seed with a fixed op count
   give identical ``.calls``, ``campaigns.cells`` and
   ``scheduling.plan_cache.lookups`` on every workload.  A count that
   drifts is a defect of the program, reported here, never averaged.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SEED = 11
#: Timed seconds of each run of the planted-slowdown check.
SECONDS = 12.0
#: Alternating base/slowdown pairs behind the serve-compile comparison.
SERVE_PAIRS = 3


def bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def run(workload, *extra, seconds=5.0, trace=0, cwd=ROOT, check=True):
    """Run the benchmark once; returns (returncode, result or None)."""
    cmd = [
        sys.executable, "zzbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
        *extra,
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=240)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if check and (proc.returncode != 0 or result is None):
        raise SystemExit(f"run failed: {cmd}\n{proc.stderr[-3000:]}")
    return proc.returncode, result


def value(result, name):
    return result["metrics"][name]["value"]


def check_no_program(report) -> None:
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        HERE, bare / "zzbench",
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    code, result = run("fig20-sweep", cwd=bare, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    report("no program: exits non-zero, prints no result",
           code != 0 and result is None, f"exit {code}, result {result}")


def check_wrong_expected(report) -> None:
    wrong = WORK / "selftest-expected"
    shutil.rmtree(wrong, ignore_errors=True)
    shutil.copytree(HERE / "expected", wrong)
    for workload in ("fig20-sweep", "serve-compile"):
        path = wrong / f"{workload}.json"
        doc = json.loads(path.read_text())
        first = workloads.op_inputs(workload, SEED)[0]
        if workload == "serve-compile":
            doc["outputs"][str(first["requests"][0]["seed"])]["digest"] = "0" * 24
        else:
            key = workloads.cell_id_from_op(first, 0)
            doc["outputs"][key]["fidelity"] += 1e-6
        path.write_text(json.dumps(doc))
        _, result = run(workload, "--ops", "2", "--expected", str(wrong))
        ok = value(result, "ok_frac")
        report(f"planted wrong output: {workload} ok_frac < 1",
               ok < 1.0 and not result["correct"] and result["failed"] >= 1,
               f"ok_frac {ok:.3f}, failed {result['failed']}")
    shutil.rmtree(wrong, ignore_errors=True)


def check_planted_slowdown(report) -> None:
    limits = bounds()
    base = run("fig20-sweep", seconds=SECONDS)[1]
    slow = run("fig20-sweep", "--plant-slowdown", seconds=SECONDS)[1]
    drop = 1.0 - value(slow, "ops_per_s") / value(base, "ops_per_s")
    report("planted slowdown: fig20-sweep ops_per_s drops beyond its bound",
           drop > limits["ops_per_s"]["bound"], f"drop {drop:.1%}")
    base_t = run("fig20-sweep", seconds=SECONDS, trace=1)[1]
    slow_t = run("fig20-sweep", "--plant-slowdown", seconds=SECONDS, trace=1)[1]
    ratio = value(slow_t, "sim.apply_gate.self_s") / value(base_t, "sim.apply_gate.self_s")
    report("planted slowdown: fig20-sweep sim.apply_gate.self_s rises",
           ratio > 1.5, f"x{ratio:.2f}")
    runs = {False: [], True: []}
    for pair in range(SERVE_PAIRS):
        for planted in (pair % 2 == 1, pair % 2 == 0):
            extra = ("--plant-slowdown",) if planted else ()
            runs[planted].append(run("serve-compile", *extra, seconds=SECONDS)[1])
    for name in ("ops_per_s", "latency_p50_s"):
        spec = limits[name]
        base, slow = (
            statistics.median(value(r, name) for r in runs[planted])
            for planted in (False, True)
        )
        change = slow / base - 1.0
        worse = -change if spec["better"] == "higher" else change
        report(f"planted slowdown: serve-compile {name} within bound",
               worse <= spec["bound"], f"change {change:+.1%}")


def deterministic_counts(result) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(".calls")
        or name in ("campaigns.cells", "scheduling.plan_cache.lookups")
    }


def check_count_determinism(report) -> None:
    for workload in workloads.WORKLOADS:
        ops = "3" if workload == "serve-compile" else "2"
        first = deterministic_counts(run(workload, "--ops", ops, trace=1)[1])
        second = deterministic_counts(run(workload, "--ops", ops, trace=1)[1])
        drift = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        report(f"count determinism: {workload}", not drift,
               f"{len(first)} counts" if not drift else f"DEFECT drifting counts {drift}")


def main() -> int:
    failures = []

    def report(name, passed, detail):
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})", flush=True)
        if not passed:
            failures.append(name)

    WORK.mkdir(exist_ok=True)
    check_no_program(report)
    check_wrong_expected(report)
    check_planted_slowdown(report)
    check_count_determinism(report)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
