"""A sweep or serve process never imports SciPy.

Sweeps and ``repro serve`` read pulses from the committed library, so
they need neither SciPy's optimizers (pulse optimization, Ramsey fits)
nor ``scipy.sparse`` (the all-pairs distances are a numpy BFS).  The
check runs in a fresh interpreter, because this test process has long
since imported SciPy through other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PROGRAM = """
import json, sys

import repro.cli
import repro.serve
from repro.campaigns.runner import run_campaign
from repro.campaigns.spec import Cell, DeviceSpec
from repro.serve.protocol import CompileRequest
from repro.serve.service import CompileService

cell = Cell("QAOA", 4, "pert+zzx", device=DeviceSpec(rows=3, cols=4))
campaign = run_campaign([cell], dispatch="serial")
compiled = CompileService().handle(CompileRequest("eagle", "qaoa", 0))
print(json.dumps({
    "failed": campaign.failed,
    "compile": compiled["status"],
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_sweep_cell_and_eagle_compile_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    answer = json.loads(proc.stdout.strip().splitlines()[-1])
    assert answer["failed"] == 0
    assert answer["compile"] == "ok"
    assert answer["scipy"] == []
