"""Workload inputs, the timed operations and their output checks.

Every input is a pure function of the workload seed. The program sees
only what is generated here: scenario CSV files and command lines.

Each timed operation is one closed-loop call of ``smartrar.cli.main``,
looked up as a module attribute at call time, so the tracer's wrappers
are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("sweep_serial", "mcmc_records")

# The paper's scenario grid: 21 infection rates x 8 death rates per arm,
# nested s0, s1, r0, r1 (28,224 scenarios), and its four (m, c) designs.
R_VALUES = tuple(i / 100 for i in range(0, 101, 5))
S_VALUES = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95)
DESIGNS = ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0))
REPLICATES = 10
FULL_GRID_TRIALS = len(R_VALUES) ** 2 * len(S_VALUES) ** 2 * len(DESIGNS) * REPLICATES

# Program defaults the checks rely on: 2,000 patients per trial and the
# default utility table (1 for survival, 0 for death).
PATIENTS = 2000
U_MIN, U_MAX = 0.0, 1.0

# |z| limit of the pooled c = 0 calibration check. A correct engine fails
# it with probability about 2e-9 per call.
Z_LIMIT = 6.0


@dataclass(frozen=True)
class Size:
    """How much input one run generates."""

    sweep_scenarios: int = 400  # sampled without replacement from the full grid
    sweep_chunk: int = 50  # scenarios per sweep call
    trial_inputs: int = 2000  # seeded simulate inputs, cycled


@dataclass
class Call:
    """One closed-loop operation: ``run`` is timed, ``check`` is not."""

    run: Callable[[], object]
    check: Callable[[object], list[str]]
    trials: int
    out_dir: Path  # emptied before each call


@dataclass
class Workload:
    warmup: Call
    calls: list[Call]


def import_program():
    """Import smartrar from the checkout's ``src`` directory."""
    src = ROOT / "src"
    if not (src / "smartrar" / "__init__.py").is_file():
        raise ImportError(f"smartrar sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import smartrar.cli

    return smartrar


def full_grid() -> list[tuple[float, float, float, float]]:
    return [
        (r0, r1, s0, s1) for s0 in S_VALUES for s1 in S_VALUES for r0 in R_VALUES for r1 in R_VALUES
    ]


def sweep_inputs(seed: int, size: Size) -> tuple[int, list[list[tuple[float, float, float, float]]]]:
    """Base seed and scenario chunks of ``sweep_serial``."""
    rng = random.Random(f"sweep-{seed}")
    grid = full_grid()
    picked = [grid[i] for i in rng.sample(range(len(grid)), size.sweep_scenarios)]
    chunks = [picked[i : i + size.sweep_chunk] for i in range(0, len(picked), size.sweep_chunk)]
    return rng.randrange(2**31), chunks


def trial_inputs(seed: int, size: Size) -> list[tuple[tuple[float, ...], int, float, int]]:
    """(scenario, m, c, trial seed) draws for ``mcmc_records``."""
    rng = random.Random(f"mcmc_records-{seed}")
    grid = full_grid()
    out = []
    for _ in range(size.trial_inputs):
        m, c = DESIGNS[rng.randrange(len(DESIGNS))]
        out.append((grid[rng.randrange(len(grid))], m, c, rng.randrange(2**63)))
    return out


def write_scenarios(path: Path, scenarios) -> None:
    lines = ["r0,r1,s0,s1"] + [",".join(repr(v) for v in s) for s in scenarios]
    path.write_text("\n".join(lines) + "\n")


def setup(workload: str, seed: int, workdir: Path, size: Size = Size()) -> Workload:
    """Import the program and generate the workload's inputs under ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    program = import_program()
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "sweep_serial":
        return sweep_workload(program, seed, workdir, size, threads=1)
    return _simulate_workload(program, seed, workdir, size)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def _quiet_main(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def sweep_workload(program, seed: int, workdir: Path, size: Size, threads: int) -> Workload:
    """Sweep calls over the seed's scenario chunks with ``threads`` workers."""
    base_seed, chunks = sweep_inputs(seed, size)

    def make(tag: str, scenarios) -> Call:
        grid_csv = workdir / f"scenarios_{tag}.csv"
        write_scenarios(grid_csv, scenarios)
        out_dir = workdir / f"out_{tag}"
        argv = [
            "sweep", "--grid", str(grid_csv), "--designs", "all",
            "--replicates", str(REPLICATES), "--engine", "conjugate",
            "--threads", str(threads), "--base-seed", str(base_seed),
            "--out-dir", str(out_dir),
        ]  # fmt: skip
        return Call(
            run=lambda: _quiet_main(program.cli, argv),
            check=lambda res: check_sweep(res[0], out_dir, scenarios),
            trials=len(scenarios) * len(DESIGNS) * REPLICATES,
            out_dir=out_dir,
        )

    calls = [make(str(i), chunk) for i, chunk in enumerate(chunks)]
    return Workload(make("warmup", chunks[0][:2]), calls)


def _read_csv(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:] if line]


def check_sweep(rc: int, out_dir: Path, scenarios) -> list[str]:
    """Checks that hold for any correct engine; returns the problems found."""
    if rc != 0:
        return [f"sweep exited {rc}"]
    problems: list[str] = []
    n_cells = len(scenarios) * len(DESIGNS)
    rep_path = out_dir / "sweep_replicates.csv"
    agg_path = out_dir / "sweep_aggregate.csv"
    try:
        rep_header, reps = _read_csv(rep_path)
        agg_header, aggs = _read_csv(agg_path)
        manifest = (out_dir / "manifest.txt").read_text()
    except (OSError, IndexError) as exc:
        return [f"missing or empty sweep output: {exc}"]
    if rep_header != "r0,r1,s0,s1,m,c,replicate,u_bar" or len(reps) != n_cells * REPLICATES:
        problems.append(f"replicates CSV: header {rep_header!r}, {len(reps)} rows")
    if agg_header != "r0,r1,s0,s1,m,c,u_bar_bar,std_err" or len(aggs) != n_cells:
        problems.append(f"aggregate CSV: header {agg_header!r}, {len(aggs)} rows")
    if problems:
        return problems
    if {tuple(float(v) for v in row[:4]) for row in aggs} != set(scenarios):
        problems.append("aggregate scenarios differ from the input scenarios")
    values = [float(row[7]) for row in reps] + [float(row[6]) for row in aggs]
    if not all(math.isfinite(u) and U_MIN <= u <= U_MAX for u in values):
        problems.append("u_bar outside the utility table's range or not finite")
    problems.extend(_check_fixed_design(reps))
    problems.extend(_check_manifest(manifest, out_dir, [rep_path.name, agg_path.name]))
    return problems


def expected_fixed_utility(r0: float, r1: float, s0: float, s1: float) -> float:
    """Mean utility per patient under 50/50 randomisation: each arm's
    ``true_value`` (survival probability 1 - r*s) averaged over both arms."""
    return 1.0 - 0.5 * (r0 * s0 + r1 * s1)


def _check_fixed_design(reps: list[list[str]]) -> list[str]:
    """Pooled z-test of every c = 0 replicate against its analytic mean.

    With c = 0 every patient's utility is Bernoulli(p) with p the arm
    average, so a replicate's u_bar has variance p (1 - p) / patients.
    """
    diff = var = 0.0
    for row in reps:
        if float(row[5]) != 0.0:
            continue
        p = expected_fixed_utility(*(float(v) for v in row[:4]))
        u = float(row[7])
        v = p * (1.0 - p) / PATIENTS
        if v == 0.0 and abs(u - p) > 1e-12:
            return [f"c = 0 replicate {row} should equal {p} exactly"]
        diff += u - p
        var += v
    if var > 0.0 and abs(diff) / math.sqrt(var) > Z_LIMIT:
        return [f"c = 0 rows: pooled z = {diff / math.sqrt(var):.2f} against the analytic mean"]
    return []


def _check_manifest(manifest: str, out_dir: Path, names: list[str]) -> list[str]:
    listed = {}
    for line in manifest.splitlines():
        name, sep, value = line.partition(" = sha256:")
        if sep:
            listed[name] = value
    problems = []
    for name in names:
        digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        if listed.get(name) != digest:
            problems.append(f"manifest digest for {name} does not match the file")
    return problems


# ----------------------------------------------------------------------
# simulate with the MCMC engine
# ----------------------------------------------------------------------


def _simulate_workload(program, seed, workdir, size) -> Workload:
    out_dir = workdir / "out"

    def make(item) -> Call:
        (r0, r1, s0, s1), m, c, trial_seed = item
        argv = [
            "simulate", "--r0", repr(r0), "--r1", repr(r1), "--s0", repr(s0),
            "--s1", repr(s1), "--m", str(m), "--c", repr(c), "--engine", "mcmc",
            "--seed", str(trial_seed), "--out", str(out_dir),
        ]  # fmt: skip
        return Call(
            run=lambda: _quiet_main(program.cli, argv),
            check=lambda res: check_simulate(res[0], res[1], out_dir),
            trials=1,
            out_dir=out_dir,
        )

    inputs = trial_inputs(seed, size)
    return Workload(make(inputs[0]), [make(item) for item in inputs[1:]])


def check_simulate(rc: int, stdout: str, out_dir: Path) -> list[str]:
    if rc != 0:
        return [f"simulate exited {rc}"]
    try:
        header, rows = _read_csv(out_dir / "patients.csv")
        (out_dir / "allocations.csv").stat()
    except (OSError, IndexError) as exc:
        return [f"missing simulate output: {exc}"]
    if not header.startswith("patient,") or len(rows) != PATIENTS:
        return [f"patients.csv: header {header!r}, {len(rows)} rows"]
    reported = [line for line in stdout.splitlines() if line.startswith("u_bar=")]
    if len(reported) != 1:
        return ["no u_bar line on stdout"]
    u_bar = float(reported[0][len("u_bar=") :])
    mean = math.fsum(float(row[-1]) for row in rows) / len(rows)
    if not abs(u_bar - mean) <= 1e-9:
        return [f"stdout u_bar={u_bar!r} but the utility column averages {mean!r}"]
    return []
