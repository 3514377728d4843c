"""Tolerance-tiered golden-fixture store for headline regression numbers.

Each golden pins the scalar outputs of one reduced experiment run into
``src/repro/verify/data/golden.json``; a tier names the comparison rule:

- ``exact`` — integers and structural facts (layer counts): ``==``;
- ``close`` — deterministic floating-point pipelines (fidelities,
  infidelities): agreement to 1e-10, i.e. any drift beyond accumulated
  rounding is a regression;
- ``statistical`` — seeded Monte Carlo outputs (trajectory fidelities):
  5% relative tolerance, so resampling-level changes pass while model
  changes fail.

``scripts/refresh_golden.py`` recomputes and rewrites the fixtures; the
tier-2 test suite and ``repro verify --golden`` compare against them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from collections.abc import Callable, Iterable

FIXTURE_VERSION = 1

TIERS = ("exact", "close", "statistical")

#: close: absolute/relative agreement; statistical: relative only.
CLOSE_TOL = 1e-10
STATISTICAL_RTOL = 0.05


@dataclass(frozen=True)
class GoldenSpec:
    """One pinned experiment: an id, a comparison tier, and a compute fn."""

    golden_id: str
    tier: str
    description: str
    compute: Callable[[], dict[str, float]]


def _fig16_values() -> dict[str, float]:
    from repro.experiments import fig16_single_qubit

    result = fig16_single_qubit.run(num_points=5)
    return {
        f"{row['gate']}/{row['method']}/{row['lambda_mhz']}mhz": row["infidelity"]
        for row in result.rows
    }


def _fig20_cases():
    from repro.experiments.common import BenchmarkCase

    return [BenchmarkCase("QAOA", 4), BenchmarkCase("Ising", 4)]


def _fig20_values() -> dict[str, float]:
    from repro.experiments import fig20_overall

    result = fig20_overall.run(cases=_fig20_cases())
    values: dict[str, float] = {}
    for row in result.rows:
        for config in ("gau+par", "optctrl+zzx", "pert+zzx", "improvement"):
            values[f"{row['benchmark']}/{config}"] = row[config]
    return values


def _fig23_values() -> dict[str, float]:
    from repro.experiments import fig23_decoherence

    result = fig23_decoherence.run(
        benchmarks=("QAOA",), t1_values_us=(100.0, 500.0)
    )
    values: dict[str, float] = {}
    for row in result.rows:
        for config in ("gau+par", "pert+zzx", "improvement"):
            key = f"{row['benchmark']}/t1={row['t1_t2_us']:.0f}us/{config}"
            values[key] = row[config]
    return values


def _fig23_trajectory_values() -> dict[str, float]:
    from repro.experiments import fig23_decoherence

    result = fig23_decoherence.run(
        benchmarks=("QAOA",),
        t1_values_us=(100.0,),
        backend="trajectories",
        trajectories=40,
    )
    row = result.rows[0]
    return {
        "QAOA-6/t1=100us/gau+par": row["gau+par"],
        "QAOA-6/t1=100us/pert+zzx": row["pert+zzx"],
    }


def _schedule_structure_values() -> dict[str, float]:
    from repro.experiments.common import BenchmarkCase, schedule_for

    values: dict[str, float] = {}
    for name, size in (("QAOA", 6), ("QFT", 6), ("Ising", 9)):
        case = BenchmarkCase(name, size)
        for scheduler in ("par", "zzx"):
            schedule = schedule_for(case, scheduler)
            values[f"{case.label}/{scheduler}/layers"] = schedule.num_layers
            values[f"{case.label}/{scheduler}/identities"] = sum(
                len(layer.identities) for layer in schedule.layers
            )
    return values


def _sched_scale_values() -> dict[str, float]:
    """Schedule structure of the 127-qubit heavy-hex (Eagle) compile path.

    Layer/identity counts of the device-native QAOA and QV workloads; the
    plan-cache and vectorized-distance fast paths must never move them.
    """
    from repro.scheduling.scalebench import bench_circuit, scale_context
    from repro.scheduling.zzxsched import zzx_schedule

    values: dict[str, float] = {}
    for device_name, kind in (("eagle", "qaoa"), ("eagle", "qv")):
        topology, requirement = scale_context(device_name)
        circuit = bench_circuit(topology, kind)
        schedule = zzx_schedule(circuit, topology, requirement)
        prefix = f"{device_name}/{kind}"
        values[f"{prefix}/gates"] = len(circuit.gates)
        values[f"{prefix}/layers"] = schedule.num_layers
        values[f"{prefix}/identities"] = sum(
            len(layer.identities) for layer in schedule.layers
        )
    return values


GOLDENS: dict[str, GoldenSpec] = {
    spec.golden_id: spec
    for spec in (
        GoldenSpec(
            "fig16",
            "close",
            "single-qubit ZZ suppression infidelities (5-point sweep)",
            _fig16_values,
        ),
        GoldenSpec(
            "fig20",
            "close",
            "overall fidelities, QAOA-4/Ising-4 on the paper device",
            _fig20_values,
        ),
        GoldenSpec(
            "fig23",
            "close",
            "decoherence fidelities, QAOA-6 density backend",
            _fig23_values,
        ),
        GoldenSpec(
            "fig23-trajectories",
            "statistical",
            "decoherence fidelities, QAOA-6 Monte Carlo backend (40 samples)",
            _fig23_trajectory_values,
        ),
        GoldenSpec(
            "schedule-structure",
            "exact",
            "layer/identity counts of canonical ParSched & ZZXSched runs",
            _schedule_structure_values,
        ),
        GoldenSpec(
            "sched-scale",
            "exact",
            "schedule structure of 127-qubit heavy-hex (Eagle) workloads",
            _sched_scale_values,
        ),
    )
}


@dataclass(frozen=True)
class GoldenDiff:
    """One divergence between a fixture and a fresh computation."""

    golden_id: str
    key: str
    tier: str
    stored: float | None
    fresh: float | None
    reason: str

    def __str__(self) -> str:
        return (
            f"{self.golden_id}[{self.key}] ({self.tier}): {self.reason} "
            f"(stored={self.stored!r}, fresh={self.fresh!r})"
        )


def fixture_path() -> Path:
    return Path(__file__).parent / "data" / "golden.json"


def load_fixtures(path: str | Path | None = None) -> dict:
    """The fixture file content, or an empty skeleton when absent."""
    path = Path(path) if path is not None else fixture_path()
    if not path.exists():
        return {"version": FIXTURE_VERSION, "entries": {}}
    with open(path) as fh:
        data = json.load(fh)
    if data.get("version", 0) > FIXTURE_VERSION:
        raise ValueError(
            f"golden fixtures at {path} use format {data['version']}, newer "
            f"than this checkout supports ({FIXTURE_VERSION})"
        )
    return data


def refresh(
    ids: Iterable[str] | None = None, path: str | Path | None = None
) -> dict:
    """Recompute the requested goldens and rewrite the fixture file."""
    path = Path(path) if path is not None else fixture_path()
    data = load_fixtures(path)
    data["version"] = FIXTURE_VERSION
    for golden_id in _resolve_ids(ids):
        spec = GOLDENS[golden_id]
        data["entries"][golden_id] = {
            "tier": spec.tier,
            "description": spec.description,
            "values": spec.compute(),
        }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data


def _resolve_ids(ids: Iterable[str] | None) -> list[str]:
    if ids is None:
        return list(GOLDENS)
    unknown = [i for i in ids if i not in GOLDENS]
    if unknown:
        raise ValueError(
            f"unknown golden id(s) {', '.join(unknown)}; "
            f"known: {', '.join(GOLDENS)}"
        )
    return list(ids)


def _values_match(tier: str, stored: float, fresh: float) -> bool:
    if tier == "exact":
        return stored == fresh
    if tier == "close":
        scale = max(1.0, abs(stored), abs(fresh))
        return abs(stored - fresh) <= CLOSE_TOL * scale
    if tier == "statistical":
        scale = max(abs(stored), abs(fresh), 1e-6)
        return abs(stored - fresh) <= STATISTICAL_RTOL * scale
    raise ValueError(f"unknown tier {tier!r}; known: {TIERS}")


def compare(
    golden_id: str,
    path: str | Path | None = None,
    fresh: dict[str, float] | None = None,
) -> list[GoldenDiff]:
    """Diffs between the stored fixture and a fresh computation."""
    spec = GOLDENS[golden_id]
    entry = load_fixtures(path)["entries"].get(golden_id)
    if entry is None:
        return [
            GoldenDiff(
                golden_id,
                "*",
                spec.tier,
                None,
                None,
                "no stored fixture — run scripts/refresh_golden.py",
            )
        ]
    fresh = fresh if fresh is not None else spec.compute()
    tier = entry.get("tier", spec.tier)
    stored = entry["values"]
    diffs: list[GoldenDiff] = []
    for key in sorted(set(stored) | set(fresh)):
        if key not in stored:
            diffs.append(
                GoldenDiff(golden_id, key, tier, None, fresh[key], "new key")
            )
        elif key not in fresh:
            diffs.append(
                GoldenDiff(golden_id, key, tier, stored[key], None, "key gone")
            )
        elif not _values_match(tier, stored[key], fresh[key]):
            diffs.append(
                GoldenDiff(
                    golden_id,
                    key,
                    tier,
                    stored[key],
                    fresh[key],
                    f"outside the {tier} tolerance",
                )
            )
    return diffs


def compare_all(
    ids: Iterable[str] | None = None, path: str | Path | None = None
) -> dict[str, list[GoldenDiff]]:
    return {
        golden_id: compare(golden_id, path) for golden_id in _resolve_ids(ids)
    }


def diff_report(diffs: dict[str, list[GoldenDiff]]) -> dict:
    """JSON-able summary (written as a CI artifact on failure)."""
    return {
        "version": FIXTURE_VERSION,
        "passed": not any(diffs.values()),
        "goldens": {
            golden_id: [asdict(d) for d in entries]
            for golden_id, entries in diffs.items()
        },
    }
