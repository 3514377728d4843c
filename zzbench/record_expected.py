"""Record the expected outputs of every workload input pool.

Usage (from the repository root)::

    PYTHONPATH=src python3 zzbench/record_expected.py [WORKLOAD ...]

Writes ``zzbench/expected/<workload>.json``.  Each output is checked
independently before it is written:

every schedule behind an output must pass the ``repro.verify`` legality
and suppression oracles (the sweep schedules of the fixed circuit once,
every ``compile`` seed's schedule on its own), and every sweep fidelity
must lie in [0, 1].  A failed check aborts the recording.

Sweep outputs come from the same serial ``run_campaign`` path the
benchmark drives; ``compile`` outputs come from a one-shot
``bench_circuit`` + ``zzx_schedule`` in this process, never from the
daemon under test.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads

def _oracle_failures(schedule, circuit, topology, zzx: bool) -> list[str]:
    from repro.verify.oracles import check_legality, check_suppression

    failures = check_legality(schedule, circuit, topology)
    if zzx:
        failures += check_suppression(schedule, topology)
    return [str(f) for f in failures]


def _check_sweep_schedules(cells) -> dict:
    """Oracle-check each distinct schedule behind ``cells``."""
    from repro.campaigns.runner import (
        _cached_compiled,
        cached_topology,
        schedule_for_cell,
    )

    checked = {}
    for cell in cells:
        key = (cell.device.rows, cell.device.cols, cell.config)
        if key in checked:
            continue
        device = cell.device
        compiled = _cached_compiled(
            cell.benchmark, cell.num_qubits, cell.circuit_seed,
            device.family, device.rows, device.cols,
        )
        topology = cached_topology(device.family, device.rows, device.cols)
        failures = _oracle_failures(
            schedule_for_cell(cell), compiled.circuit, topology,
            zzx=cell.scheduler == "zzx",
        )
        if failures:
            raise SystemExit(f"schedule for {cell.label} {cell.config}: {failures}")
        checked[key] = "legality+suppression" if cell.scheduler == "zzx" else "legality"
    return {f"{r}x{c}/{config}": what for (r, c, config), what in checked.items()}


def record_sweep() -> dict:
    from repro.campaigns.runner import run_campaign

    outputs = {}
    schedules = None
    for seed in workloads.FIG20_POOL:
        op = {"op": "fig20", "device_seeds": [seed]}
        cells = workloads.cells_for(op)
        if schedules is None:
            schedules = _check_sweep_schedules(cells)
        result = run_campaign(cells, dispatch="serial")
        answers = [
            workloads.answer_record(cell, record)
            for cell, record in zip(result.cells, result.records)
        ]
        for answer in answers:
            if answer["status"] != "ok" or not 0.0 <= answer["fidelity"] <= 1.0 + 1e-9:
                raise SystemExit(f"bad output {answer}")
            outputs[answer.pop("id")] = answer
    return {"schedules_checked": schedules, "outputs": outputs, "defects": []}


def record_serve() -> dict:
    from repro.scheduling.plan_cache import SuppressionPlanCache
    from repro.scheduling.requirement import SuppressionRequirement
    from repro.scheduling.scalebench import bench_circuit
    from repro.scheduling.zzxsched import zzx_schedule
    from repro.serve.protocol import schedule_digest
    from repro.verify.generators import scale_topology

    topology = scale_topology(workloads.SERVE_DEVICE)
    requirement = SuppressionRequirement.from_topology(topology)
    # Plans are pure functions of their key: sharing one cache across
    # seeds changes no schedule, only the recording time.
    plans = SuppressionPlanCache()
    outputs = {}
    for seed in workloads.SERVE_POOL:
        circuit = bench_circuit(topology, workloads.SERVE_CIRCUIT, seed=seed)
        schedule = zzx_schedule(circuit, topology, requirement, None, plans)
        failures = _oracle_failures(schedule, circuit, topology, zzx=True)
        if failures:
            raise SystemExit(f"compile seed {seed}: {failures}")
        outputs[str(seed)] = {
            "digest": schedule_digest(schedule),
            "num_layers": schedule.num_layers,
            "num_gates": len(circuit.gates),
            "num_qubits": topology.num_qubits,
        }
    return {
        "schedules_checked": "legality+suppression, every seed",
        "outputs": outputs,
        "defects": [],
    }


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or workloads.WORKLOADS
    from repro.version import __version__

    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names:
        t0 = time.perf_counter()
        body = record_serve() if name == "serve-compile" else record_sweep()
        doc = {"workload": name, "repro_version": __version__, **body}
        path = Path(workloads.EXPECTED_DIR) / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(
            f"{name}: {len(doc['outputs'])} outputs, "
            f"{len(doc['defects'])} defect(s), "
            f"{time.perf_counter() - t0:.0f}s -> {path}"
        )
        if doc["defects"]:
            print(f"  first defect: {doc['defects'][0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
