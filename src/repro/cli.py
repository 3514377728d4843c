"""Command-line entry point: ``python -m repro <command>``.

Subcommands:

- ``run [ids|all]`` — reproduce paper experiments (the historical default;
  a bare ``python -m repro fig20`` still works);
- ``sweep`` — execute a declarative campaign grid, resumably, across
  worker processes (``--shard i/N`` runs one machine's deterministic
  slice; ``--dispatch`` overrides the cost model's serial/parallel
  decision);
- ``plan`` — predict a sweep's per-shard wall time from the campaign
  cost model without computing anything (``--shards N`` previews an
  N-machine split; ``--store`` calibrates on measured timings);
- ``merge`` — union shard stores into one file, bit-identical to a
  single-machine run of the full grid;
- ``report`` — re-render a stored sweep without computing anything;
- ``list`` — list experiments, or summarize a result store;
- ``verify`` — run N seeded differential-verification scenarios (random
  device + circuit through every oracle), optionally with the golden
  regression fixtures;
- ``sched-bench`` — time the ZZXSched compile path on real-device
  topologies (heavy-hex Falcon/Eagle/Osprey, large grids), cache on/off;
- ``chaos`` — run a small campaign under each injected fault (cell
  exception, hang, worker kill, store corruption) and assert the store
  converges to the fault-free result;
- ``stats`` — render a telemetry trace (span tree, cache hit ratios,
  latency percentiles), or diff two traces;
- ``serve`` — run the compilation-as-a-service daemon: warm caches
  answering compile/simulate requests over local HTTP/JSON, on worker
  threads or fork-warm worker processes (``--backend thread|process``;
  see "Serving compiles" in EXPERIMENTS.md);
- ``bench-serve`` — load-test an in-process daemon with concurrent mixed
  workloads and report latency percentiles, cache statistics, and the
  speedup over per-request cold processes.

Campaign options (``--workers``, ``--store``, ``--seeds``, ``--full``,
``--backend``, ``--trajectories``) are shared by ``run`` and ``sweep``;
``--full`` replaces the deprecated ``REPRO_FULL=1`` environment toggle,
and ``--backend`` selects the simulation engine (statevector, density, or
Monte Carlo trajectories) as a first-class sweep axis.  ``sweep`` adds
the fault-tolerance knobs (``--cell-timeout``, ``--max-attempts``,
``--max-failures``, ``--retry-quarantined``); see "When campaigns fail"
in EXPERIMENTS.md.

Every subcommand takes ``--telemetry [PATH]`` (collect per-phase spans
and cache counters, writing a JSONL trace for ``repro stats``; equivalent
to setting ``REPRO_TELEMETRY``) and ``--quiet``/``-v`` (diagnostic
verbosity; tables and summaries always print).  See "Observing a run" in
EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import repro
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.telemetry import configure as _configure_logging
from repro.telemetry import get_logger

logger = get_logger(__name__)

#: Seconds from the first line of ``repro/__init__.py`` to the end of this
#: module's imports; ``main`` records it once per process as the
#: ``startup.imports`` span, then clears it.
_IMPORTS_S: float | None = time.perf_counter() - repro.IMPORT_STARTED

SUBCOMMANDS = (
    "run", "sweep", "plan", "merge", "report", "list", "verify",
    "sched-bench", "chaos", "stats", "serve", "bench-serve",
)

#: Where ``--telemetry`` without a path writes its trace.
DEFAULT_TRACE = "repro_trace.jsonl"

def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by every subcommand."""
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress informational diagnostics (warnings/errors still print)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="show debug diagnostics",
    )
    parser.add_argument(
        "--telemetry",
        nargs="?",
        const=DEFAULT_TRACE,
        default=None,
        metavar="PATH",
        help="collect per-phase spans and cache counters, writing a JSONL "
        f"trace for 'repro stats' (default path: {DEFAULT_TRACE}; "
        "equivalent to setting REPRO_TELEMETRY)",
    )


#: Grid axes shared by ``sweep`` and ``report`` (must build identical specs).
def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--benchmarks",
        default="HS,QFT,QPE,QAOA,Ising,GRC",
        help="comma-separated benchmark names",
    )
    parser.add_argument(
        "--configs",
        default="gau+par,optctrl+zzx,pert+zzx",
        help="comma-separated config names (pulse+scheduler)",
    )
    parser.add_argument(
        "--sizes",
        default=None,
        help="comma-separated qubit counts (default: the paper's per-benchmark lists)",
    )
    parser.add_argument(
        "--kind",
        default="statevector",
        choices=("statevector", "density", "exec_time", "couplings"),
        help="cell kind (density needs --t1)",
    )
    parser.add_argument(
        "--t1",
        default=None,
        help="comma-separated T1=T2 values in us (density/trajectory sweeps)",
    )
    parser.add_argument(
        "--grid",
        default="3x4",
        help="device shape: ROWSxCOLS grid (default 3x4) or heavyhex:<d> "
        "(heavy-hex lattice, e.g. heavyhex:7 = 127-qubit Eagle)",
    )
    parser.add_argument(
        "--name", default="sweep", help="sweep name used as the table id"
    )
    _add_campaign_arguments(parser)


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = exact serial path)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="JSONL result store; completed cells are skipped on re-runs",
    )
    parser.add_argument(
        "--seeds",
        default=None,
        help="comma-separated device crosstalk seeds (default: the paper's 7)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        default=None,
        help="run the paper's complete 4-12 qubit sweep "
        "(replaces the deprecated REPRO_FULL=1 env var)",
    )
    from repro.campaigns.spec import BACKENDS

    parser.add_argument(
        "--backend",
        default=None,
        choices=BACKENDS,
        help="simulation backend (default: statevector, or density when "
        "--kind density / --t1 is given)",
    )
    parser.add_argument(
        "--trajectories",
        type=int,
        default=None,
        metavar="N",
        help="Monte Carlo sample count (trajectories backend only)",
    )


def _add_sweep_scale_arguments(parser: argparse.ArgumentParser) -> None:
    """Scale-out knobs (sweep only)."""
    from repro.campaigns.costmodel import DISPATCH_MODES

    parser.add_argument(
        "--dispatch",
        default="auto",
        choices=DISPATCH_MODES,
        help="serial/parallel policy: 'auto' (default) lets the cost model "
        "decide whether --workers pays; 'serial'/'parallel' force a mode",
    )
    parser.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run only this machine's deterministic slice of the grid "
        "(e.g. 0/2 and 1/2 on two machines), then 'repro merge' the stores",
    )


def _add_policy_arguments(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance knobs (sweep only; report never computes)."""
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECS",
        help="wall-clock budget per cell attempt (default: unlimited)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="attempts per cell before quarantine (default 3)",
    )
    parser.add_argument(
        "--max-failures",
        type=int,
        default=None,
        metavar="N",
        help="abort the campaign after more than N quarantined cells "
        "(default: never abort — failures are recorded and skipped)",
    )
    parser.add_argument(
        "--retry-quarantined",
        action="store_true",
        help="re-run cells whose stored record is a quarantined failure",
    )


def _csv(text: str | None, convert=str) -> tuple | None:
    if text is None:
        return None
    return tuple(convert(part.strip()) for part in text.split(",") if part.strip())


def _parse_device_spec(text: str):
    """``--grid`` device shapes: ``ROWSxCOLS`` or ``heavyhex:<d>``."""
    from repro.campaigns.spec import DeviceSpec
    from repro.device.presets import parse_shape

    shape = parse_shape(text)
    if shape[0] == "heavy_hex":
        return DeviceSpec(rows=shape[1], cols=0, family="heavy_hex")
    return DeviceSpec(rows=shape[1], cols=shape[2])


def _build_spec(args):
    from repro.campaigns.spec import SweepSpec

    device = _parse_device_spec(args.grid)
    backend = args.backend or ""
    if not backend and args.t1 and args.kind == "statevector":
        # As documented on --backend: --t1 alone means a density sweep.
        backend = "density"
    return SweepSpec(
        name=args.name,
        benchmarks=_csv(args.benchmarks),
        configs=_csv(args.configs),
        sizes=_csv(args.sizes, int),
        full=bool(args.full),
        kind=args.kind,
        device=device,
        device_seeds=_csv(args.seeds, int) or (device.seed,),
        t1_values_us=_csv(args.t1, float) or (),
        backend=backend,
        trajectories=args.trajectories,
    )


def _invalid_run_options(args) -> str | None:
    """Backend option combos rejected before any compute (exit-2 path).

    Validated here rather than by catching ValueError around the whole
    experiment run, so mid-run errors keep their tracebacks.
    """
    if args.trajectories is not None and args.backend != "trajectories":
        return "a trajectories count only applies to the trajectories backend"
    if args.backend == "statevector":
        return (
            "--backend statevector is the coherent default — omit the flag; "
            "the override only applies to density experiments "
            "(fig23: density or trajectories)"
        )
    return None


def _cmd_run(args) -> int:
    problem = _invalid_run_options(args)
    if problem:
        logger.error(f"invalid run: {problem}")
        return 2
    targets = (
        sorted(EXPERIMENTS)
        if "all" in args.experiments
        else list(args.experiments)
    )
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        logger.error(f"unknown experiment(s): {', '.join(unknown)}")
        logger.error(f"known experiments: {', '.join(sorted(EXPERIMENTS))}")
        return 2
    for target in targets:
        start = time.perf_counter()
        result = run_experiment(
            target,
            full=args.full,
            seeds=_csv(args.seeds, int),
            store=args.store,
            backend=args.backend,
            trajectories=args.trajectories,
            # Only forward an explicit parallelism request, so experiments
            # without campaign options don't warn about the default.
            workers=args.workers if args.workers != 1 else None,
        )
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"[{target} took {elapsed:.1f}s]\n")
    return 0


def _checked_spec(args):
    """Build the sweep spec or fail with the CLI's exit-2 convention."""
    try:
        spec = _build_spec(args)
    except ValueError as exc:
        logger.error(f"invalid sweep: {exc}")
        return None
    if not spec.cells():
        if not spec.benchmarks or not spec.configs:
            reason = "--benchmarks or --configs is empty"
        else:
            reason = (
                f"every requested size exceeds the "
                f"{spec.device.num_qubits}-qubit device ({spec.device.label})"
            )
        logger.error(f"invalid sweep: grid expands to 0 cells — {reason}")
        return None
    if spec.sizes is not None:
        dropped = sorted(s for s in spec.sizes if s > spec.device.num_qubits)
        if dropped:
            logger.warning(
                f"note: size(s) {', '.join(map(str, dropped))} exceed the "
                f"{spec.device.num_qubits}-qubit device — dropped"
            )
    return spec


def _build_policy(args):
    """The sweep's :class:`RetryPolicy`, or None to use the default."""
    from repro.campaigns.spec import RetryPolicy

    return RetryPolicy(
        max_attempts=args.max_attempts,
        timeout_s=args.cell_timeout,
        max_failures=args.max_failures,
        retry_quarantined=args.retry_quarantined,
    )


def _cmd_sweep(args) -> int:
    from repro.campaigns.report import as_store, sweep_table
    from repro.campaigns.runner import CampaignAbort, run_campaign
    from repro.campaigns.spec import Shard

    spec = _checked_spec(args)
    if spec is None:
        return 2
    try:
        policy = _build_policy(args)
    except ValueError as exc:
        logger.error(f"invalid sweep: {exc}")
        return 2
    cells = spec.cells()
    shard = None
    if args.shard is not None:
        try:
            shard = Shard.parse(args.shard)
        except ValueError as exc:
            logger.error(f"invalid sweep: {exc}")
            return 2
        full_grid = len(cells)
        cells = shard.select(cells)
        logger.info(
            f"shard {shard}: {len(cells)} of {full_grid} cells on this machine"
        )
    try:
        campaign = run_campaign(
            cells,
            as_store(args.store),
            workers=args.workers,
            policy=policy,
            dispatch=args.dispatch,
        )
    except CampaignAbort as exc:
        # The abort is clean: every decided outcome is already stored.
        logger.error(f"aborted: {exc}")
        return 1
    if shard is None:
        print(sweep_table(spec, campaign).render())
    else:
        # A shard's table would be mostly NaN (other machines own the
        # rest of the grid); the full table comes from `repro report`
        # against the merged store.
        print(
            f"shard {shard} done — merge the shard stores with "
            "'repro merge', then render with 'repro report'"
        )
    print(f"[{campaign.summary}]")
    if campaign.downgraded:
        logger.info(f"dispatch: serial by cost model — {campaign.dispatch_reason}")
    if campaign.failed:
        logger.error(
            f"{campaign.failed} cells failed — inspect with "
            f"'repro list --store {args.store}', re-run quarantined cells "
            "with --retry-quarantined"
        )
        return 1
    return 0


def _cmd_plan(args) -> int:
    from repro.campaigns.costmodel import (
        CostCalibration,
        available_cores,
        predict_shards,
    )
    from repro.campaigns.spec import Shard

    spec = _checked_spec(args)
    if spec is None:
        return 2
    shards = args.shards
    only = None
    if args.shard is not None:
        try:
            only = Shard.parse(args.shard)
        except ValueError as exc:
            logger.error(f"invalid plan: {exc}")
            return 2
        if args.shards != 1 and args.shards != only.count:
            logger.error(
                f"invalid plan: --shard {args.shard} conflicts with "
                f"--shards {args.shards}"
            )
            return 2
        shards = only.count
    if shards < 1:
        logger.error(f"invalid plan: --shards must be >= 1, got {shards}")
        return 2
    calibration = None
    source = "heuristic cost model (no measured timings)"
    if args.store:
        if not Path(args.store).exists():
            logger.warning(
                f"note: store {args.store} does not exist yet — "
                "planning on heuristics"
            )
        else:
            from repro.campaigns.store import ResultStore

            calibration = CostCalibration.from_records(
                ResultStore(args.store).records()
            )
            source = (
                f"{len(calibration)} measured cost bucket(s) "
                f"from {args.store}"
            )
    cells = spec.cells()
    cores = args.cores if args.cores is not None else available_cores()
    plans = predict_shards(
        cells,
        shards,
        requested_workers=args.workers,
        calibration=calibration,
        cores=cores,
        dispatch=args.dispatch,
    )
    print(
        f"plan: {len(cells)} cells over {shards} shard(s), "
        f"--workers {args.workers} on {cores} core(s) per machine"
    )
    print(f"calibration: {source}")
    shown = [p for p in plans if only is None or p.index == only.index]
    for plan in shown:
        line = (
            f"  shard {plan.label}: {plan.cells} cells, "
            f"est {plan.est_cell_s:.1f}s of cell work -> "
            f"{plan.est_wall_s:.1f}s wall ({plan.mode}"
        )
        if plan.mode == "parallel":
            line += f" x{plan.workers}"
        print(line + f") — {plan.reason}")
    if only is None and shards > 1:
        slowest = max(plans, key=lambda p: p.est_wall_s)
        print(
            f"campaign finishes with shard {slowest.label}: "
            f"est {slowest.est_wall_s:.1f}s wall "
            f"({sum(p.est_cell_s for p in plans):.1f}s total cell work)"
        )
    return 0


def _cmd_merge(args) -> int:
    from repro.campaigns.store import StoreMergeError, merge_stores

    try:
        report = merge_stores(args.inputs, args.out)
    except StoreMergeError as exc:
        logger.error(f"invalid merge: {exc}")
        return 2
    print(report.summary)
    return 0


def _cmd_report(args) -> int:
    from repro.campaigns.report import report_from_store

    spec = _checked_spec(args)
    if spec is None:
        return 2
    result, missing = report_from_store(spec, args.store)
    print(result.render())
    if missing:
        print(
            f"[{len(missing)} cells missing — re-run "
            f"'repro sweep ... --store {args.store}' to fill them]"
        )
    return 0


def parse_seed_spec(text: str) -> tuple[int, ...]:
    """Seeds for ``verify --seeds``: a count, ranges, or a mix.

    ``"20"`` means seeds 0..19; ``"5-8"`` is the inclusive range; comma
    lists combine both forms (``"3,7,10-12"``).  Malformed specs raise
    ``ValueError`` with a message naming the offending part.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty seed spec")
    if "," not in text and "-" not in text:
        count = _spec_int(text)
        if count < 1:
            raise ValueError(f"seed count must be >= 1, got {count}")
        return tuple(range(count))
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty element in seed spec {text!r}")
        if "-" in part:
            lo_text, _, hi_text = part.partition("-")
            lo, hi = _spec_int(lo_text), _spec_int(hi_text)
            if lo > hi:
                raise ValueError(f"descending range {part!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(_spec_int(part))
    return tuple(seeds)


def _spec_int(text: str) -> int:
    text = text.strip()
    if not text.isdigit():
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _cmd_verify(args) -> int:
    from repro.campaigns.report import as_store
    from repro.verify import golden as golden_module
    from repro.verify.runner import verify_scenarios

    try:
        seeds = parse_seed_spec(args.seeds)
    except ValueError as exc:
        logger.error(f"invalid verify: --seeds {exc}")
        return 2
    report = verify_scenarios(seeds, as_store(args.store))
    print(report.render())
    failed = not report.passed

    if args.golden or args.golden_report:
        try:
            diffs = golden_module.compare_all()
        except ValueError as exc:
            # e.g. a fixture file written by a newer checkout.
            logger.error(f"invalid golden fixtures: {exc}")
            return 2
        if args.golden_report:
            import json

            payload = golden_module.diff_report(diffs)
            # The CI failure artifact must tell the whole story, so the
            # scenario verdict rides along with the golden diffs.
            payload["scenarios"] = {
                "passed": report.passed,
                "failures": report.failures,
            }
            payload["passed"] = payload["passed"] and report.passed
            with open(args.golden_report, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        flat = [str(d) for entries in diffs.values() for d in entries]
        ids = ", ".join(sorted(diffs))
        if flat:
            failed = True
            print(f"\ngolden regression FAILED ({ids}):")
            for line in flat:
                print(f"  {line}")
        else:
            print(f"\ngolden regression ok ({ids})")
    return 1 if failed else 0


def _cmd_sched_bench(args) -> int:
    from repro.scheduling.scalebench import run_sched_bench

    devices = _csv(args.devices) or ()
    circuits = _csv(args.circuits) or ()
    problem = _check_scale_workload(devices, circuits)
    if problem:
        logger.error(f"invalid sched-bench: {problem}")
        return 2
    start = time.perf_counter()
    result = run_sched_bench(
        devices,
        circuits,
        seed=args.seed,
        compare_uncached=not args.no_uncached,
        check=args.check,
    )
    print(result.render())
    print(f"[sched-bench took {time.perf_counter() - start:.1f}s]")
    return 0


def _cmd_chaos(args) -> int:
    from repro.campaigns.chaos import run_chaos

    scenarios = _csv(args.scenarios)
    report = run_chaos(
        workers=args.workers, out_dir=args.dir, scenarios=scenarios
    )
    if scenarios and not report.outcomes:
        logger.error(f"invalid chaos: no scenario matches {args.scenarios!r}")
        return 2
    print(report.render())
    if not report.passed:
        for outcome in report.outcomes:
            if not outcome.passed:
                logger.error(
                    f"chaos FAILED [{outcome.scenario}]: {outcome.detail}"
                )
        return 1
    return 0


def _cmd_stats(args) -> int:
    from repro.telemetry.stats import load_stats, render_diff, render_stats

    try:
        snap = load_stats(args.trace)
        if args.diff:
            other = load_stats(args.diff)
            text = render_diff(
                snap, other, label_a=Path(args.trace).name, label_b=Path(args.diff).name
            )
        else:
            text = render_stats(snap, title=args.trace)
    except (OSError, ValueError) as exc:
        logger.error(f"invalid stats: {exc}")
        return 2
    print(text)
    return 0


def _check_scale_workload(devices, circuits) -> str | None:
    """Validate sched-bench/serve device and circuit names (None = ok)."""
    from repro.verify.generators import SCALE_CIRCUITS, scale_topology

    for name in devices:
        try:
            scale_topology(name)
        except ValueError as exc:
            return str(exc)
    unknown = [c for c in circuits if c not in SCALE_CIRCUITS]
    if unknown:
        return (
            f"unknown circuit(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(SCALE_CIRCUITS))}"
        )
    return None


def _cmd_serve(args) -> int:
    from repro.serve.daemon import ReproServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        workers=args.serve_workers,
        backend=args.backend,
        store=args.store,
    )
    server = ReproServer(config)
    thread = server.start_background()
    print(
        f"repro serve listening on {config.host}:{server.port} "
        f"({config.workers} {config.backend} workers, "
        f"queue {config.queue_size}) — "
        "Ctrl-C or POST /shutdown to stop"
    )
    try:
        while thread.is_alive():
            thread.join(0.5)
    except KeyboardInterrupt:
        server.request_stop()
        thread.join(10.0)
    return 0


def _cmd_bench_serve(args) -> int:
    import json

    from repro.serve.daemon import ServeConfig
    from repro.serve.loadtest import render, run_load_test

    devices = _csv(args.devices) or ()
    circuits = _csv(args.circuits) or ()
    problem = _check_scale_workload(devices, circuits)
    if problem:
        logger.error(f"invalid bench-serve: {problem}")
        return 2
    config = ServeConfig(
        port=0,
        queue_size=args.queue_size,
        workers=args.serve_workers,
        backend=args.backend,
    )
    start = time.perf_counter()
    report = run_load_test(
        requests=args.requests,
        clients=args.clients,
        devices=devices,
        circuits=circuits,
        seeds=args.seeds,
        config=config,
        baseline_samples=args.baseline,
        check=not args.no_check,
    )
    print(render(report))
    print(f"[bench-serve took {time.perf_counter() - start:.1f}s]")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"[report written to {args.out}]")
    if report.get("errors"):
        logger.error(f"bench-serve: {len(report['errors'])} request(s) failed")
        return 1
    if (report.get("equivalence") or {}).get("mismatches"):
        logger.error("bench-serve: served schedules diverge from one-shot compiles")
        return 1
    return 0


def _cmd_list(args) -> int:
    if getattr(args, "store", None):
        from repro.campaigns.report import store_summary

        print(store_summary(args.store).render())
        return 0
    for key in sorted(EXPERIMENTS):
        print(key)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables/figures from 'Suppressing ZZ Crosstalk of "
            "Quantum Computers through Pulse and Scheduling Co-Optimization' "
            "(ASPLOS 2022)."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    run_parser = sub.add_parser(
        "run", help="run paper experiments and print their tables"
    )
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(sorted(EXPERIMENTS))} or 'all')",
    )
    _add_campaign_arguments(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = sub.add_parser(
        "sweep", help="execute a campaign grid (resumable with --store)"
    )
    _add_grid_arguments(sweep_parser)
    _add_sweep_scale_arguments(sweep_parser)
    _add_policy_arguments(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    plan_parser = sub.add_parser(
        "plan",
        help="predict a sweep's per-shard wall time from the cost model "
        "(no computation; --store calibrates on measured timings)",
    )
    _add_grid_arguments(plan_parser)
    plan_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="preview an N-machine split (default 1: one machine)",
    )
    plan_parser.add_argument(
        "--cores",
        type=int,
        default=None,
        metavar="N",
        help="model target machines with N cores (default: this machine)",
    )
    from repro.campaigns.costmodel import DISPATCH_MODES

    plan_parser.add_argument(
        "--dispatch",
        default="auto",
        choices=DISPATCH_MODES,
        help="serial/parallel policy assumed per shard (default auto)",
    )
    plan_parser.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="show only this shard of an N-way split",
    )
    plan_parser.set_defaults(func=_cmd_plan)

    merge_parser = sub.add_parser(
        "merge",
        help="union shard stores (from sweep --shard runs) into one store",
    )
    merge_parser.add_argument(
        "inputs", nargs="+", metavar="STORE", help="shard store files to merge"
    )
    merge_parser.add_argument(
        "--out",
        required=True,
        metavar="PATH",
        help="merged store (appended to if it exists — merges are resumable)",
    )
    merge_parser.set_defaults(func=_cmd_merge)

    report_parser = sub.add_parser(
        "report", help="aggregate a stored sweep without recomputing"
    )
    _add_grid_arguments(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    list_parser = sub.add_parser(
        "list", help="list experiments (or a store's contents with --store)"
    )
    list_parser.add_argument("--store", default=None, metavar="PATH")
    list_parser.set_defaults(func=_cmd_list)

    verify_parser = sub.add_parser(
        "verify",
        help="run seeded differential-verification scenarios and oracles",
    )
    verify_parser.add_argument(
        "--seeds",
        default="10",
        help="scenario count, or explicit seeds/ranges (e.g. 20, 0-19, 3,7,9-11)",
    )
    verify_parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="JSONL result store; passing scenarios are skipped on re-runs",
    )
    verify_parser.add_argument(
        "--golden",
        action="store_true",
        help="also compare the golden regression fixtures",
    )
    verify_parser.add_argument(
        "--golden-report",
        default=None,
        metavar="PATH",
        help="write the golden diff report as JSON (implies --golden)",
    )
    verify_parser.set_defaults(func=_cmd_verify)

    bench_parser = sub.add_parser(
        "sched-bench",
        help="time the ZZXSched compile path on real-device topologies",
    )
    bench_parser.add_argument(
        "--devices",
        default="falcon,eagle",
        help="comma-separated device names (falcon, hummingbird, eagle, "
        "osprey, heavyhex:<d>, grid:<W>x<H>)",
    )
    bench_parser.add_argument(
        "--circuits",
        default="qaoa,qv",
        help="comma-separated workload kinds (qaoa, qv)",
    )
    bench_parser.add_argument(
        "--seed", type=int, default=0, help="workload generator seed"
    )
    bench_parser.add_argument(
        "--no-uncached",
        action="store_true",
        help="skip the NullPlanCache comparison run (faster)",
    )
    bench_parser.add_argument(
        "--check",
        action="store_true",
        help="run legality + suppression oracles on every schedule",
    )
    bench_parser.set_defaults(func=_cmd_sched_bench)

    chaos_parser = sub.add_parser(
        "chaos",
        help="run a small campaign under injected faults and assert "
        "the store converges to the fault-free result",
    )
    chaos_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="pool size for the worker-kill scenario (default 2)",
    )
    chaos_parser.add_argument(
        "--dir",
        default=None,
        metavar="PATH",
        help="keep per-scenario stores here (default: temp dir, removed)",
    )
    chaos_parser.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario names to run (default: all)",
    )
    chaos_parser.set_defaults(func=_cmd_chaos)

    stats_parser = sub.add_parser(
        "stats",
        help="render a telemetry trace: span tree, cache hit ratios, "
        "latency percentiles (or diff two traces)",
    )
    stats_parser.add_argument(
        "trace", help="JSONL trace written by --telemetry / REPRO_TELEMETRY"
    )
    stats_parser.add_argument(
        "--diff",
        default=None,
        metavar="OTHER",
        help="compare against a second trace, phase by phase",
    )
    stats_parser.set_defaults(func=_cmd_stats)

    serve_parser = sub.add_parser(
        "serve",
        help="run the compile/simulate daemon: warm caches in one "
        "long-lived process behind a local HTTP/JSON endpoint",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8177,
        help="bind port (default 8177; 0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="answer simulate requests from (and record into) this "
        "campaign result store",
    )
    _add_serve_tuning_arguments(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    bench_serve_parser = sub.add_parser(
        "bench-serve",
        help="load-test an in-process serve daemon: concurrent mixed "
        "compile requests, latency percentiles, cold-process speedup",
    )
    bench_serve_parser.add_argument(
        "--requests",
        type=int,
        default=200,
        help="total timed requests (default 200)",
    )
    bench_serve_parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent client threads (default 4)",
    )
    bench_serve_parser.add_argument(
        "--devices",
        default="eagle,osprey",
        help="comma-separated device names (falcon, hummingbird, eagle, "
        "osprey, heavyhex:<d>, grid:<W>x<H>)",
    )
    bench_serve_parser.add_argument(
        "--circuits",
        default="qaoa,qv",
        help="comma-separated workload kinds (qaoa, qv)",
    )
    bench_serve_parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="workload seeds per (device, circuit) combo (default 1)",
    )
    _add_serve_tuning_arguments(bench_serve_parser)
    bench_serve_parser.add_argument(
        "--baseline",
        type=int,
        default=0,
        metavar="N",
        help="also time N per-request cold processes and report the "
        "warm-serve speedup (default: skip)",
    )
    bench_serve_parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the served-vs-one-shot schedule digest equivalence check",
    )
    bench_serve_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the full report as JSON",
    )
    bench_serve_parser.set_defaults(func=_cmd_bench_serve)

    for sub_parser in sub.choices.values():
        _add_output_arguments(sub_parser)
    return parser


def _add_serve_tuning_arguments(parser: argparse.ArgumentParser) -> None:
    """Daemon tunables shared by ``serve`` and ``bench-serve``."""
    parser.add_argument(
        "--queue-size",
        type=int,
        default=256,
        help="bounded request queue; overflow answers 503 (default 256)",
    )
    parser.add_argument(
        "--serve-workers",
        type=int,
        default=4,
        help="daemon workers: threads or processes per --backend (default 4)",
    )
    parser.add_argument(
        "--backend",
        default="thread",
        # Mirrors repro.serve.daemon.BACKENDS (not imported here: parser
        # construction must not pay for the serve stack).
        choices=("thread", "process"),
        help="request executor: 'thread' shares every cache in one process "
        "(GIL-bound); 'process' forks warm worker processes for "
        "multicore compile scaling (default thread)",
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv == ["--list"]:
        # Historical behavior: bare invocation lists the experiments.
        for key in sorted(EXPERIMENTS):
            print(key)
        return 0
    if argv[0] not in SUBCOMMANDS and not argv[0].startswith("-"):
        # Legacy form: ``python -m repro fig20 [fig21 ...]``.
        argv = ["run", *argv]
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 0
    _configure_logging(-1 if args.quiet else args.verbose)
    from repro import telemetry

    if args.telemetry:
        telemetry.enable(trace=args.telemetry)
    global _IMPORTS_S
    if telemetry.enabled() and _IMPORTS_S is not None:
        telemetry.observe("startup.imports", _IMPORTS_S)
        _IMPORTS_S = None
    if args.command == "report" and not args.store:
        logger.error("report requires --store PATH")
        return 2
    from repro.campaigns.store import StoreFormatError

    try:
        code = args.func(args)
    except StoreFormatError as exc:
        logger.error(f"invalid store: {exc}")
        code = 2
    # Write the trace even on failure — a failing run is exactly the one
    # worth profiling.
    if telemetry.enabled() and telemetry.trace_path() is not None:
        written = telemetry.write_trace(meta={"argv": argv})
        logger.info(f"telemetry trace written to {written}")
    return code


if __name__ == "__main__":
    sys.exit(main())
