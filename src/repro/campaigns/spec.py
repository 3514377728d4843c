"""Sweep specification: the cells of the paper's evaluation grid.

The evaluation (Figs 20-25) is a grid — benchmarks x sizes x configs x
device seeds — and every point of it is a :class:`Cell`: one fully
determined, hashable, picklable unit of work.  A :class:`SweepSpec`
declares a grid and expands it to cells in a deterministic order, so the
same spec always produces the same cell sequence (and therefore the same
store keys and report layout).

Four cell *kinds* cover the paper's figures:

- ``statevector`` — coherent Hamiltonian-level execution (Figs 20-22);
- ``density`` — adds T1/T2 decoherence channels (Fig. 23);
- ``exec_time`` — pure scheduling analysis, no simulation (Fig. 24);
- ``couplings`` — tunable-coupler turn-off counts (Fig. 25).

Orthogonally to the kind, the **backend** axis picks the simulation engine
(:mod:`repro.runtime.backends`): ``statevector`` (coherent, the default),
``density`` (exact T1/T2, <= 8 qubits) or ``trajectories`` (Monte Carlo
T1/T2 at statevector cost; ``trajectories=N`` sets the sample count).
Cells normalize the two axes to one canonical spelling — a decoherent
backend implies ``kind="density"``, and legacy ``kind="density"`` cells
resolve to the density backend — so every computation has exactly one
store key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from repro.circuits.library import BENCHMARKS, PAPER_SIZES

#: config name -> (pulse method, scheduler); the canonical table shared by
#: the experiments harness (``experiments.common`` re-exports it).
CONFIGS = {
    "gau+par": ("gaussian", "par"),
    "optctrl+zzx": ("optctrl", "zzx"),
    "pert+zzx": ("pert", "zzx"),
    "pert+par": ("pert", "par"),
    "gau+zzx": ("gaussian", "zzx"),
}

KINDS = ("statevector", "density", "exec_time", "couplings")

#: Simulation engines the ``backend`` axis accepts (mirrors
#: ``repro.runtime.backends.BACKEND_NAMES``; kept literal so spec stays a
#: leaf module with no simulator imports).
BACKENDS = ("statevector", "density", "trajectories")

#: Default Monte Carlo sample count for ``backend="trajectories"`` cells.
DEFAULT_TRAJECTORIES = 100


def default_backend(kind: str) -> str:
    """The engine a kind historically implied (pre-backend-axis spelling)."""
    return "density" if kind == "density" else "statevector"


def normalize_backend_axis(kind: str, backend: str, what: str) -> tuple[str, str]:
    """Resolve the (kind, backend) pair to its one canonical spelling.

    Shared by :class:`Cell` and :class:`SweepSpec` so the two stay in
    lockstep; ``what`` names the caller ("cells"/"sweeps") in errors.
    """
    backend = backend or default_backend(kind)
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}"
        )
    if backend in ("density", "trajectories"):
        if kind in ("exec_time", "couplings"):
            raise ValueError(
                f"{kind} {what} are pure analysis and take no "
                "simulation backend"
            )
        # Canonical spelling: a decoherent backend is a density study.
        kind = "density"
    elif kind == "density":
        raise ValueError(
            f"density {what} simulate with the density or trajectories "
            "backend, not statevector"
        )
    return kind, backend


DEFAULT_SEED = 7
DEFAULT_BENCHMARKS = ("HS", "QFT", "QPE", "QAOA", "Ising", "GRC")
DEFAULT_CONFIGS = ("gau+par", "optctrl+zzx", "pert+zzx")


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner supervises each cell evaluation.

    A cell gets up to ``max_attempts`` tries; transient errors (anything
    not classified permanent by the runner) back off exponentially from
    ``backoff_s`` with deterministic per-cell jitter, capped at
    ``backoff_cap_s``.  ``timeout_s`` is the per-attempt wall-clock
    budget (None = unlimited).  A cell that exhausts its attempts is
    *quarantined*: its failure is recorded durably and the campaign
    moves on — unless the run has already quarantined more than
    ``max_failures`` cells, in which case it aborts cleanly.  Resumes
    re-run failed-but-not-quarantined cells; ``retry_quarantined`` also
    re-runs the quarantined ones (e.g. after a fix).
    """

    max_attempts: int = 3
    timeout_s: float | None = None
    backoff_s: float = 0.1
    backoff_cap_s: float = 2.0
    max_failures: int | None = None
    retry_quarantined: bool = False

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff values must be >= 0")
        if self.max_failures is not None and self.max_failures < 0:
            raise ValueError("max_failures must be >= 0 (or None)")

    def backoff_for(self, cell: "Cell", attempt: int) -> float:
        """Deterministic exponential backoff + jitter before a retry.

        Jitter derives from the cell payload and attempt number, so two
        runs of the same campaign sleep identically — retries stay
        reproducible — while colliding cells still decorrelate.
        """
        base = min(self.backoff_cap_s, self.backoff_s * (2 ** (attempt - 1)))
        blob = json.dumps(
            {"cell": cell.payload(), "attempt": attempt}, sort_keys=True
        )
        digest = hashlib.sha256(blob.encode()).digest()
        jitter = 0.5 + digest[0] / 255.0  # [0.5, 1.5]
        return base * jitter


#: The runner's default supervision (used when no policy is passed).
DEFAULT_POLICY = RetryPolicy()


#: Topology families a :class:`DeviceSpec` can describe.  ``grid`` uses
#: ``rows x cols``; ``heavy_hex`` reads ``rows`` as the lattice distance
#: (IBM-style: d=7 is the 127-qubit Eagle, d=13 the 433-qubit Osprey).
DEVICE_FAMILIES = ("grid", "heavy_hex")


@dataclass(frozen=True)
class DeviceSpec:
    """A reproducible device: topology shape + crosstalk sampling parameters.

    The paper's evaluation device is the 3x4 grid with crosstalk sampled at
    200 +/- 50 kHz from seed 7; Fig. 23 substitutes the 2x3 subgrid.  The
    ``family`` axis adds real-device topologies (heavy-hex lattices) for
    the scheduler-scale studies.
    """

    rows: int = 3
    cols: int = 4
    seed: int = DEFAULT_SEED
    mean_khz: float = 200.0
    std_khz: float = 50.0
    family: str = "grid"

    def __post_init__(self):
        if self.family not in DEVICE_FAMILIES:
            raise ValueError(
                f"unknown device family {self.family!r}; "
                f"known: {', '.join(DEVICE_FAMILIES)}"
            )
        if self.family == "heavy_hex" and (self.rows < 3 or self.rows % 2 == 0):
            raise ValueError("heavy-hex distance (rows) must be odd and >= 3")

    @property
    def num_qubits(self) -> int:
        if self.family == "heavy_hex":
            d = self.rows
            return d * (2 * d + 1) - 2 + (d * d - 1) // 2
        return self.rows * self.cols

    @property
    def label(self) -> str:
        if self.family == "heavy_hex":
            return f"heavyhex-d{self.rows}/s{self.seed}"
        return f"grid{self.rows}x{self.cols}/s{self.seed}"

    def topology(self):
        """Build this spec's :class:`~repro.device.topology.Topology`."""
        from repro.device.presets import grid as grid_topology
        from repro.device.presets import heavy_hex

        if self.family == "heavy_hex":
            return heavy_hex(self.rows)
        return grid_topology(self.rows, self.cols)

    def payload(self) -> dict:
        data = {
            "rows": self.rows,
            "cols": self.cols,
            "seed": self.seed,
            "mean_khz": self.mean_khz,
            "std_khz": self.std_khz,
        }
        # Only non-grid families enter the payload, so grid cells (and any
        # store written before the family axis existed) keep their keys.
        if self.family != "grid":
            data["family"] = self.family
        return data

    @staticmethod
    def from_payload(data: dict) -> "DeviceSpec":
        return DeviceSpec(**data)


PAPER_DEVICE = DeviceSpec()
FIG23_DEVICE = DeviceSpec(rows=2, cols=3)


@dataclass(frozen=True)
class Cell:
    """One fully determined evaluation point of a sweep grid."""

    benchmark: str
    num_qubits: int
    config: str
    kind: str = "statevector"
    device: DeviceSpec = field(default=PAPER_DEVICE)
    circuit_seed: int = 0
    t1_us: float | None = None
    t2_us: float | None = None
    #: ZZXConfig overrides as a sorted item tuple (kept hashable).
    zzx: tuple[tuple[str, object], ...] = ()
    #: Simulation engine; "" infers it from ``kind`` (see module docs).
    backend: str = ""
    #: Monte Carlo sample count (trajectories backend only).
    trajectories: int | None = None

    def __post_init__(self):
        if self.benchmark not in BENCHMARKS:
            raise ValueError(
                f"unknown benchmark {self.benchmark!r}; "
                f"known: {', '.join(sorted(BENCHMARKS))}"
            )
        if self.config not in CONFIGS:
            raise ValueError(
                f"unknown config {self.config!r}; known: {', '.join(CONFIGS)}"
            )
        if self.kind not in KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}; known: {KINDS}")
        kind, backend = normalize_backend_axis(self.kind, self.backend, "cells")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "backend", backend)
        if backend in ("density", "trajectories"):
            if self.t1_us is None or self.t2_us is None:
                raise ValueError(
                    "density/trajectories cells need t1_us and t2_us"
                )
        elif self.t1_us is not None or self.t2_us is not None:
            # Fail at construction, not mid-campaign on a worker.
            raise ValueError(
                "t1_us/t2_us only apply to density/trajectories cells"
            )
        if backend == "trajectories":
            count = (
                DEFAULT_TRAJECTORIES
                if self.trajectories is None
                else self.trajectories
            )
            if count < 1:
                raise ValueError("trajectories count must be >= 1")
            object.__setattr__(self, "trajectories", count)
        elif self.trajectories is not None:
            raise ValueError(
                "a trajectories count only applies to the trajectories backend"
            )
        object.__setattr__(self, "zzx", tuple(sorted(self.zzx)))

    @property
    def label(self) -> str:
        return f"{self.benchmark}-{self.num_qubits}"

    @property
    def method(self) -> str:
        return CONFIGS[self.config][0]

    @property
    def scheduler(self) -> str:
        return CONFIGS[self.config][1]

    def payload(self) -> dict:
        """Canonical JSON-able form — the content that is hashed and stored."""
        data = {
            "benchmark": self.benchmark,
            "num_qubits": self.num_qubits,
            "config": self.config,
            "kind": self.kind,
            "device": self.device.payload(),
            "circuit_seed": self.circuit_seed,
        }
        if self.t1_us is not None:
            data["t1_us"] = self.t1_us
        if self.t2_us is not None:
            data["t2_us"] = self.t2_us
        if self.zzx:
            data["zzx"] = [list(item) for item in self.zzx]
        # Only non-default backends enter the payload, so cells that predate
        # the backend axis keep their historical store keys.
        if self.backend != default_backend(self.kind):
            data["backend"] = self.backend
        if self.trajectories is not None:
            data["trajectories"] = self.trajectories
        return data

    @staticmethod
    def from_payload(data: dict) -> "Cell":
        return Cell(
            benchmark=data["benchmark"],
            num_qubits=data["num_qubits"],
            config=data["config"],
            kind=data.get("kind", "statevector"),
            device=DeviceSpec.from_payload(data["device"]),
            circuit_seed=data.get("circuit_seed", 0),
            t1_us=data.get("t1_us"),
            t2_us=data.get("t2_us"),
            zzx=tuple(tuple(item) for item in data.get("zzx", ())),
            backend=data.get("backend", ""),
            trajectories=data.get("trajectories"),
        )


def shard_of(cell: Cell, num_shards: int) -> int:
    """Deterministic shard index of a cell, independent of fingerprint.

    Hashes the canonical cell payload (not the store key), so the
    partition depends only on the grid — two machines with different
    pulse-library fingerprints still agree on who owns which cell, and
    re-sharding after a library change is a no-op.
    """
    blob = json.dumps(cell.payload(), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


@dataclass(frozen=True)
class Shard:
    """One machine's slice of a sharded campaign: ``index`` of ``count``."""

    index: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("shard count must be >= 1")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index {self.index} out of range for {self.count} "
                "shard(s) (indices are 0-based: 0/2 and 1/2 cover a "
                "two-machine split)"
            )

    @staticmethod
    def parse(text: str) -> "Shard":
        """Parse the CLI spelling ``i/N`` (e.g. ``--shard 0/2``)."""
        index, sep, count = text.partition("/")
        try:
            if not sep:
                raise ValueError
            return Shard(int(index), int(count))
        except ValueError:
            raise ValueError(
                f"invalid shard {text!r}; expected i/N with 0 <= i < N "
                "(e.g. 0/2)"
            ) from None

    def owns(self, cell: Cell) -> bool:
        return shard_of(cell, self.count) == self.index

    def select(self, cells) -> tuple[Cell, ...]:
        """This shard's cells, in the original grid order."""
        return tuple(cell for cell in cells if self.owns(cell))

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def cell_key(cell: Cell, fingerprint: str) -> str:
    """Content hash of a cell + code/data fingerprint — the store key.

    Two cells share a key iff they describe the same computation *and* were
    produced by the same pulse library / package version, so a store never
    serves stale results across library changes.
    """
    blob = json.dumps(
        {"cell": cell.payload(), "fingerprint": fingerprint},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def paper_sizes(benchmark: str, full: bool = False) -> tuple[int, ...]:
    """The paper's size list for a benchmark; first two in reduced mode."""
    sizes = PAPER_SIZES[benchmark]
    return sizes if full else sizes[:2]


@dataclass(frozen=True)
class SweepSpec:
    """A declarative evaluation grid, expanded deterministically to cells.

    ``sizes=None`` uses the paper's per-benchmark size lists (truncated to
    the first two unless ``full``).  Sweeping ``device_seeds`` is how
    multi-seed robustness studies are declared — each seed is a fresh
    crosstalk sample on the same topology.
    """

    name: str = "sweep"
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS
    configs: tuple[str, ...] = DEFAULT_CONFIGS
    sizes: tuple[int, ...] | None = None
    full: bool = False
    kind: str = "statevector"
    device: DeviceSpec = field(default=PAPER_DEVICE)
    device_seeds: tuple[int, ...] = (DEFAULT_SEED,)
    circuit_seeds: tuple[int, ...] = (0,)
    t1_values_us: tuple[float, ...] = ()
    #: Simulation engine; "" infers it from ``kind`` (as on :class:`Cell`).
    backend: str = ""
    trajectories: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}; known: {KINDS}")
        kind, backend = normalize_backend_axis(self.kind, self.backend, "sweeps")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "backend", backend)
        if backend in ("density", "trajectories") and not self.t1_values_us:
            raise ValueError("density sweeps need t1_values_us (CLI: --t1)")
        if backend != "trajectories" and self.trajectories is not None:
            raise ValueError(
                "a trajectories count only applies to the trajectories backend"
            )
        if self.kind != "density" and self.t1_values_us:
            raise ValueError(
                f"t1_values_us only applies to density sweeps, not {self.kind!r} "
                "(it would multiply the grid with identical cells)"
            )
        unknown = [b for b in self.benchmarks if b not in BENCHMARKS]
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(BENCHMARKS))}"
            )
        unknown = [c for c in self.configs if c not in CONFIGS]
        if unknown:
            raise ValueError(
                f"unknown config(s) {', '.join(unknown)}; "
                f"known: {', '.join(CONFIGS)}"
            )

    def sizes_for(self, benchmark: str) -> tuple[int, ...]:
        sizes = self.sizes if self.sizes is not None else paper_sizes(benchmark, self.full)
        return tuple(s for s in sizes if s <= self.device.num_qubits)

    def cells(self) -> tuple[Cell, ...]:
        """Expand the grid in a fixed, documented order.

        Order: benchmark -> size -> device seed -> circuit seed -> T1 ->
        config.  Keeping config innermost groups the per-point configs
        adjacently, which is what the pivoted reports consume.
        """
        t1_axis: tuple[float | None, ...] = self.t1_values_us or (None,)
        out: list[Cell] = []
        for benchmark in self.benchmarks:
            for size in self.sizes_for(benchmark):
                for dev_seed in self.device_seeds:
                    device = replace(self.device, seed=dev_seed)
                    for circ_seed in self.circuit_seeds:
                        for t1 in t1_axis:
                            for config in self.configs:
                                out.append(
                                    Cell(
                                        benchmark=benchmark,
                                        num_qubits=size,
                                        config=config,
                                        kind=self.kind,
                                        device=device,
                                        circuit_seed=circ_seed,
                                        t1_us=t1,
                                        t2_us=t1,
                                        backend=self.backend,
                                        trajectories=self.trajectories,
                                    )
                                )
        return tuple(out)
