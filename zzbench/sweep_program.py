"""Program process of the sweep workload: one ``run_campaign`` per op.

Reads one JSON op per line on stdin and answers each with one JSON line
on stdout::

    {"op": "fig20", "device_seeds": [a, b]}  -> {"records": [...], "failed": n}
    {"op": "snapshot"}                       -> {"spans": {...}}  (traced only)

Each sweep op is one serial ``run_campaign`` call with a throwaway
in-memory store, exactly as a user's serial sweep runs it.  Exits at
end of input.  ``--trace`` installs the per-layer tracing of
``tracing.py`` before the first op; ``--plant-slowdown`` plants a 2x
slowdown around ``sim.apply_gate`` (self-test only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import tracing
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--plant-slowdown", action="store_true")
    opts = parser.parse_args(argv)
    # The protocol owns the real stdout; stray prints go to stderr.
    out = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr
    tracer = None
    if opts.trace or opts.plant_slowdown:
        tracer = tracing.install(
            trace=opts.trace, plant_slowdown=opts.plant_slowdown
        )
    from repro.campaigns import runner

    for line in sys.stdin:
        op = json.loads(line)
        if op["op"] == "snapshot":
            answer = {"spans": tracer.snapshot() if tracer else {}}
        else:
            cells = workloads.cells_for(op)
            result = runner.run_campaign(cells, dispatch="serial")
            answer = {
                "records": [
                    workloads.answer_record(cell, record)
                    for cell, record in zip(result.cells, result.records)
                ],
                "failed": result.failed,
            }
        out.write(json.dumps(answer) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
