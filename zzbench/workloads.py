"""Workload inputs, derived from ``--seed``, and the checks on each answer.

Every op of a workload costs the same: the mix is fixed and only
cost-neutral inputs vary (device seeds resample crosstalk strengths,
compile seeds redraw the QAOA angles and term order).  Those inputs come
from fixed pools whose expected outputs are recorded in ``expected/`` by
``record_expected.py``; the workload seed only chooses the order in which
a run walks its pool, so two runs of one seed send identical inputs in
the same order and no input repeats within a run.

This module imports nothing from ``repro`` at import time: the load
process stays light, and only the program side builds cells.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("fig20-sweep", "serve-compile")

#: The sweep workload's circuit: one fixed 4-qubit QAOA instance.
BENCHMARK, SIZE, CIRCUIT_SEED = "QAOA", 4, 0
CONFIGS = ("gau+par", "pert+zzx")

#: fig20-sweep: crosstalk device seeds on the paper's 3x4 grid (two per op).
FIG20_POOL = tuple(range(1000, 1160))
#: serve-compile: ``compile eagle qaoa`` seeds.
SERVE_POOL = tuple(range(1024))
SERVE_DEVICE, SERVE_CIRCUIT = "eagle", "qaoa"
#: Requests per serve-compile op, sent one after the other.  Request
#: latencies are lumpy (the cyclic garbage collector's pauses land on
#: every second or third request), so the time of one or two requests
#: falls in clusters whose shares move between runs and their median
#: jumps between clusters; four requests per op average the pauses out.
SERVE_REQUESTS_PER_OP = 4

#: Warm-up ops per program process before any timed op; the first one
#: ends the set-up measurement.
WARMUP_OPS = {"fig20-sweep": 1, "serve-compile": 3}

#: Timed ops after which ``peak_rss_mb`` is read.  A fixed op count, not
#: the end of the window: serve's heap grows with every fresh seed, so
#: memory read at the end would grow with throughput and a speed-up
#: would read as a memory regression.  Both counts fit in a window of
#: the benchmark's length on a slow host (about 20 and 75 ops).
RSS_AFTER_OPS = {"fig20-sweep": 10, "serve-compile": 60}

#: Tolerance of the ``close`` golden tier in ``repro.verify.golden``,
#: for deterministic floats.
CLOSE_TOL = 1e-10

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def op_inputs(workload: str, seed: int) -> list[dict]:
    """Every op payload of one run, in send order (the whole pool)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fig20-sweep":
        seeds = list(FIG20_POOL)
        rng.shuffle(seeds)
        return [
            {"op": "fig20", "device_seeds": seeds[i:i + 2]}
            for i in range(0, len(seeds) - 1, 2)
        ]
    if workload == "serve-compile":
        seeds = list(SERVE_POOL)
        rng.shuffle(seeds)
        requests = [
            {
                "kind": "compile",
                "device": SERVE_DEVICE,
                "circuit": SERVE_CIRCUIT,
                "seed": s,
            }
            for s in seeds
        ]
        k = SERVE_REQUESTS_PER_OP
        return [
            {"requests": requests[i:i + k]}
            for i in range(0, len(requests) - k + 1, k)
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


# -- cells (program side and recorder only) ---------------------------------


def cells_for(op: dict):
    """The sweep cells of one ``fig20`` op."""
    from repro.campaigns.spec import Cell, DeviceSpec

    return [
        Cell(
            BENCHMARK, SIZE, config,
            device=DeviceSpec(seed=seed), circuit_seed=CIRCUIT_SEED,
        )
        for seed in op["device_seeds"]
        for config in CONFIGS
    ]


def sweep_key(config: str, device_seed: int) -> str:
    """Expected-file key of one sweep cell."""
    return f"{config}/s{device_seed}"


def cell_id(cell) -> str:
    """Expected-file key of one sweep cell."""
    return sweep_key(cell.config, cell.device.seed)


def answer_record(cell, record: dict) -> dict:
    """The checked part of one campaign store record."""
    out = {"id": cell_id(cell), "status": record.get("status", "ok")}
    result = record.get("result") or {}
    for field in ("fidelity", "stderr", "execution_time_ns", "num_layers"):
        if field in result:
            out[field] = result[field]
    return out


# -- expectations and checks (load process) -------------------------------


def load_expected(workload: str, directory: Path | None = None) -> dict:
    path = (directory or EXPECTED_DIR) / f"{workload}.json"
    with open(path) as fh:
        return json.load(fh)["outputs"]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CLOSE_TOL * max(1.0, abs(a), abs(b))


def check_sweep_answer(op: dict, answer: dict, expected: dict) -> list[str]:
    """Mismatches of one sweep op's records against the expected file."""
    records = answer.get("records") or []
    if len(records) != 4:
        return [f"expected 4 records, got {len(records)}"]
    problems = []
    for index, record in enumerate(records):
        key = cell_id_from_op(op, index)
        want = expected.get(key)
        if want is None or record.get("id") != key:
            problems.append(f"{record.get('id')}: no expected output {key}")
            continue
        if record.get("status") != "ok":
            problems.append(f"{key}: status {record.get('status')}")
            continue
        if record.get("num_layers") != want["num_layers"]:
            problems.append(f"{key}: num_layers {record.get('num_layers')}")
        for field in ("fidelity", "execution_time_ns"):
            got = record.get(field)
            if not isinstance(got, (int, float)) or not _close(got, want[field]):
                problems.append(f"{key}: {field} {got!r} != {want[field]!r}")
    return problems


def cell_id_from_op(op: dict, index: int) -> str:
    """The expected-file key of the ``index``-th record of a sweep op."""
    seed = op["device_seeds"][index // len(CONFIGS)]
    return sweep_key(CONFIGS[index % len(CONFIGS)], seed)


def check_compile_answer(request: dict, answer: dict, expected: dict) -> list[str]:
    """Mismatches of one ``compile`` response against the expected file."""
    seed = request["seed"]
    want = expected.get(str(seed))
    if want is None:
        return [f"seed {seed}: no expected output"]
    if answer.get("status") != "ok":
        return [f"seed {seed}: status {answer.get('status')}"]
    return [
        f"seed {seed}: {field} {answer.get(field)!r} != {want[field]!r}"
        for field in ("digest", "num_layers", "num_gates", "num_qubits")
        if answer.get(field) != want[field]
    ]


def check_serve_answer(op: dict, answer: dict, expected: dict) -> list[str]:
    """Mismatches of one serve-compile op's responses."""
    answers = answer.get("answers") or []
    if len(answers) != len(op["requests"]):
        return [f"expected {len(op['requests'])} responses, got {len(answers)}"]
    return [
        problem
        for request, response in zip(op["requests"], answers)
        for problem in check_compile_answer(request, response, expected)
    ]


def check_answer(workload: str, op: dict, answer: dict, expected: dict):
    if workload == "serve-compile":
        return check_serve_answer(op, answer, expected)
    return check_sweep_answer(op, answer, expected)
