"""Command-line front end: simulate, sweep and report commands.

All CSV output uses a fixed column order, a dot decimal separator and
reals serialised with 17 significant digits, so files round-trip exactly
and are byte-stable across runs with identical inputs and seeds.

Every command accepts ``--config FILE`` pointing at a flat INI-style file
whose section matches the command and whose keys mirror the flags
one-to-one (e.g. ``[sweep]`` with ``base-seed = 7``; any other key is an
error); explicit flags override file values. A ``[utilities]`` section
may override any of the ten utility-table rows by name. ``--threads`` and
``--out-dir`` can also be set through the SMARTRAR_THREADS and
SMARTRAR_OUT_DIR environment variables (flags win over the environment,
which wins over the file).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
from array import array
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .core import (
    ConfigurationError,
    DesignConfig,
    Scenario,
    UtilityTable,
    reduced_scenario_grid,
    scenario_grid,
    canonical_designs,
)
from .simulator import ENGINE_IMPLEMENTATION, run_trial
from .sweep import (
    SweepConfig,
    SweepError,
    SweepResult,
    check_utilities,
    relative_utility,
    run_sweep,
)

ENV_THREADS = "SMARTRAR_THREADS"
ENV_OUT_DIR = "SMARTRAR_OUT_DIR"

REPLICATES_CSV = "sweep_replicates.csv"
AGGREGATE_CSV = "sweep_aggregate.csv"
MANIFEST_FILE = "manifest.txt"
AGGREGATE_HEADER = "r0,r1,s0,s1,m,c,u_bar_bar,std_err"


def fmt_real(x: float) -> str:
    """17-significant-digit decimal form; guarantees exact float round trips."""
    return format(float(x), ".17g")


def _cell_text(r0: float, r1: float, s0: float, s1: float) -> str:
    return f"{r0:.17g},{r1:.17g},{s0:.17g},{s1:.17g}"


def _write_csv(path: Path, header: str, lines: Iterable[str]) -> Path:
    """Write ``header`` and then the newline-terminated ``lines`` as they come."""
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        f.writelines(lines)
    return path


def _read_table(path: Path, header: str, types: tuple[type, ...], key: int) -> np.ndarray:
    """One row per non-blank line after ``header``: its first ``len(types)``
    fields, each converted by its type. Raises ``ConfigurationError`` on
    another header, a line with another field count, an r0, r1, s0 or s1
    (the first four fields) outside [0, 1], or a line whose first ``key``
    fields repeat an earlier line's."""
    names = header.split(",")
    numbers, values = [], array("d")
    with open(path) as f:
        if f.readline().strip() != header:
            raise ConfigurationError(f"{path} must start with header {header!r}")
        for ln, line in enumerate(f, start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != len(names):
                raise ConfigurationError(f"{path}:{ln}: expected {len(names)} comma-separated values")
            numbers.append(ln)
            values.extend([convert(part) for convert, part in zip(types, parts)])
    table = np.array(values).reshape(-1, len(types))
    outside = np.argwhere(~((table[:, :4] >= 0.0) & (table[:, :4] <= 1.0)))
    if len(outside):
        row, col = outside[0]
        raise ConfigurationError(
            f"{path}:{numbers[row]}: {names[col]} must be a probability in [0, 1], "
            f"got {table[row, col].item()!r}"
        )
    # A stable sort puts lines with equal keys next to each other, in file order.
    order = np.lexsort(table[:, :key].T)
    keys = table[order, :key]
    repeats = np.flatnonzero((keys[1:] == keys[:-1]).all(axis=1))
    if len(repeats):
        first, again = order[repeats[0]], order[repeats[0] + 1]
        raise ConfigurationError(
            f"{path}:{numbers[again]}: repeats the ({', '.join(names[:key])}) "
            f"of line {numbers[first]}"
        )
    return table


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict[str, str], files: list[Path]) -> Path:
    """Reproducibility record for one command invocation: versions, engine,
    command, config and the sha256 of every output file."""
    lines = [
        f"tool_version = {__version__}",
        f"engine_implementation = {ENGINE_IMPLEMENTATION}",
        f"numpy_version = {np.__version__}",
        "python_version = {}.{}.{}".format(*sys.version_info[:3]),
        f"command = {command}",
        f"created_utc = {datetime.now(timezone.utc).strftime('%Y-%m-%dT%H:%M:%SZ')}",
        "",
        "[config]",
    ]
    lines.extend(f"{key} = {value}" for key, value in sorted(config.items()))
    lines.append("")
    lines.append("[outputs]")
    lines.extend(f"{f.name} = sha256:{_sha256(f)}" for f in files)
    path = out_dir / MANIFEST_FILE
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


# ----------------------------------------------------------------------
# Config file handling
# ----------------------------------------------------------------------


def _config_keys(parser: argparse.ArgumentParser) -> frozenset[str]:
    """Keys a command's config section accepts: its long flags without the dashes."""
    flags = (f for a in parser._actions if a.dest not in ("help", "config") for f in a.option_strings)
    return frozenset(f[2:] for f in flags if f.startswith("--"))


def _load_config(args: argparse.Namespace) -> configparser.ConfigParser:
    """Read ``--config``; a key in the command's section that names none of
    its flags is a ``ConfigurationError``."""
    parser = configparser.ConfigParser()
    path = args.config
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ConfigurationError(f"config file not found or unreadable: {path}")
        if parser.has_section(args.command):
            unknown = sorted(set(parser.options(args.command)) - args.config_keys)
            if unknown:
                raise ConfigurationError(
                    f"{path}: unknown key(s) {', '.join(unknown)} in [{args.command}]; "
                    f"expected any of {', '.join(sorted(args.config_keys))}"
                )
    return parser


def _resolve(flag_value, cfg, section: str, key: str, default, convert, env_name: str | None = None):
    """Flag > environment variable ``env_name`` (if given) > config file > default."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(env_name) if env_name is not None else None
    if env is not None:
        return convert(env)
    if cfg.has_option(section, key):
        return convert(cfg.get(section, key))
    return default


def _utilities_from_config(cfg: configparser.ConfigParser) -> UtilityTable | None:
    if not cfg.has_section("utilities"):
        return None
    entries = {key: float(value) for key, value in cfg.items("utilities")}
    return UtilityTable.from_entries(entries)


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def _write_patients_csv(path: Path, result) -> None:
    assert result.patient_records is not None
    lines = []
    for i, record in enumerate(result.patient_records):
        a2 = "" if record.stage2_action is None else str(record.stage2_action)
        y2 = "" if record.stage2_outcome is None else str(record.stage2_outcome)
        lines.append(
            f"{i},{record.stage1_action},{record.stage1_outcome},{a2},{y2},"
            f"{fmt_real(record.realized_utility)}\n"
        )
    _write_csv(path, "patient,stage1_action,stage1_outcome,stage2_action,stage2_outcome,utility", lines)


def _write_allocations_csv(path: Path, result) -> None:
    lines = []
    for snapshot in result.per_interim_alloc:
        for action in (0, 1):
            lines.append(f"{snapshot.analysis},1,,{action},{fmt_real(snapshot.stage1[action])}\n")
        # One stage-two pair per stage-one arm, or a single pooled pair.
        pooled = len(snapshot.stage2) == 1
        for a1, pair in enumerate(snapshot.stage2):
            label = "" if pooled else str(a1)
            for action in (0, 1):
                lines.append(f"{snapshot.analysis},2,{label},{action},{fmt_real(pair[action])}\n")
    _write_csv(path, "analysis,stage,stage1_action,action,probability", lines)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    section = "simulate"
    r0 = _resolve(args.r0, cfg, section, "r0", 0.0, float)
    r1 = _resolve(args.r1, cfg, section, "r1", 0.0, float)
    s0 = _resolve(args.s0, cfg, section, "s0", 0.05, float)
    s1 = _resolve(args.s1, cfg, section, "s1", 0.05, float)
    m = _resolve(args.m, cfg, section, "m", 0, int)
    c = _resolve(args.c, cfg, section, "c", 0.0, float)
    seed = _resolve(args.seed, cfg, section, "seed", 0, int)
    engine = _resolve(args.engine, cfg, section, "engine", "conjugate", str)
    patients = _resolve(args.patients, cfg, section, "patients", 2000, int)
    interims = _resolve(args.interims, cfg, section, "interims", 4, int)
    out = _resolve(args.out, cfg, section, "out", None, str, ENV_OUT_DIR)

    scenario = Scenario(r0=r0, r1=r1, s0=s0, s1=s1)
    design = DesignConfig(
        myopic_m=m,
        adapt_c=c,
        max_patients=patients,
        num_interims=interims,
        engine=engine,
        seed=seed,
    )
    utilities = _utilities_from_config(cfg)
    result = run_trial(scenario, design, utilities=utilities, keep_records=True)

    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_patients_csv(out_dir / "patients.csv", result)
        _write_allocations_csv(out_dir / "allocations.csv", result)
    print(f"u_bar={fmt_real(result.mean_utility)}")
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def _scenarios_from_grid(grid: str) -> list[Scenario]:
    if grid == "full":
        return scenario_grid()
    if grid == "reduced":
        return reduced_scenario_grid()
    path = Path(grid)
    if not path.exists():
        raise ConfigurationError(f"--grid must be 'full', 'reduced' or a scenario CSV; {grid!r} not found")
    table = _read_table(path, "r0,r1,s0,s1", (float,) * 4, key=4)
    if not len(table):
        raise ConfigurationError(f"scenario file {grid} contains no scenarios")
    return [Scenario(*cell) for cell in table.tolist()]


def _designs_from_spec(spec: str, engine: str) -> list[DesignConfig]:
    all_designs = {
        f"m{d.myopic_m}c{int(d.adapt_c)}": d for d in canonical_designs(engine=engine)
    }
    if spec == "all":
        return list(all_designs.values())
    chosen = []
    for token in spec.split(","):
        token = token.strip()
        if token not in all_designs:
            raise ConfigurationError(
                f"unknown design {token!r}; expected 'all' or a comma list of "
                f"{sorted(all_designs)}"
            )
        chosen.append(all_designs[token])
    return chosen


def write_sweep_csvs(out_dir: Path, result: SweepResult) -> list[Path]:
    """Stream the replicate and aggregate CSVs from the result's arrays: one
    line per (scenario, design, replicate) and per (scenario, design)."""
    designs = [f"{d.myopic_m},{d.adapt_c:.17g}" for d in result.config.designs]

    def rows(*arrays: np.ndarray) -> Iterable[tuple]:
        # One scenario at a time: (r0,r1,s0,s1,m,c prefix, its values) per design.
        for cell, *values in zip(result.config.cells.tolist(), *arrays):
            prefixes = [f"{_cell_text(*cell)},{design}" for design in designs]
            yield from zip(prefixes, *(v.tolist() for v in values))

    replicate_lines = (
        f"{prefix},{rep},{u:.17g}\n"
        for prefix, u_bars in rows(result.utility)
        for rep, u in enumerate(u_bars)
    )
    aggregate_lines = (
        f"{prefix},{u:.17g},{se:.17g}\n" for prefix, u, se in rows(result.u_bar_bar, result.std_err)
    )
    return [
        _write_csv(out_dir / REPLICATES_CSV, "r0,r1,s0,s1,m,c,replicate,u_bar", replicate_lines),
        _write_csv(out_dir / AGGREGATE_CSV, AGGREGATE_HEADER, aggregate_lines),
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    section = "sweep"
    grid = _resolve(args.grid, cfg, section, "grid", "reduced", str)
    designs_spec = _resolve(args.designs, cfg, section, "designs", "all", str)
    replicates = _resolve(args.replicates, cfg, section, "replicates", 10, int)
    base_seed = _resolve(args.base_seed, cfg, section, "base-seed", 0, int)
    engine = _resolve(args.engine, cfg, section, "engine", "conjugate", str)
    threads = _resolve(args.threads, cfg, section, "threads", None, int, ENV_THREADS)
    out_dir_value = _resolve(args.out_dir, cfg, section, "out-dir", None, str, ENV_OUT_DIR)
    if out_dir_value is None:
        print("error: --out-dir is required (flag, SMARTRAR_OUT_DIR or config)", file=sys.stderr)
        return 2

    scenarios = _scenarios_from_grid(grid)
    designs = _designs_from_spec(designs_spec, engine)
    utilities = _utilities_from_config(cfg)
    check_utilities(designs, utilities)
    sweep_config = SweepConfig(
        scenarios=tuple(scenarios),
        designs=tuple(designs),
        replicates=replicates,
        base_seed=base_seed,
        parallelism=threads,
    )

    out_dir = Path(out_dir_value)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_sweep(sweep_config, utilities=utilities)
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    files = write_sweep_csvs(out_dir, result)
    config_snapshot = {
        "grid": grid,
        "designs": designs_spec,
        "replicates": str(replicates),
        "base_seed": str(base_seed),
        "engine": engine,
        "threads": "auto" if threads is None else str(threads),
        "workers": str(result.workers),
        "scenarios": str(len(scenarios)),
    }
    write_manifest(out_dir, "sweep", config_snapshot, files)
    print(f"wrote {result.u_bar_bar.size} aggregated rows to {out_dir / AGGREGATE_CSV}")
    return 0


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def write_relative_csv(path: Path, cells: np.ndarray, rel_u: np.ndarray, m: int) -> Path:
    """Long format: one ``r0,r1,s0,s1,m,rel_u`` row per scenario, whose
    (r0, r1, s0, s1) is the matching row of ``cells``."""
    lines = (
        f"{_cell_text(*cell)},{m},{rel:.17g}\n" for cell, rel in zip(cells.tolist(), rel_u.tolist())
    )
    return _write_csv(path, "r0,r1,s0,s1,m,rel_u", lines)


def _write_relative_matrices(out_dir: Path, cells: np.ndarray, rel_u: np.ndarray, m: int) -> int:
    """One ``rel_u_m{m}_s0_{s0}_s1_{s1}.csv`` per (s0, s1) pair, r0 along
    columns and r1 along rows. The grid is every combination of the r and s
    values present; a missing cell is reported and gives exit code 1."""
    r_values, r_at = np.unique(cells[:, :2], return_inverse=True)
    s_values, s_at = np.unique(cells[:, 2:], return_inverse=True)
    at = (*s_at.reshape(-1, 2).T, *r_at.reshape(-1, 2).T)
    panels = np.full((len(s_values),) * 2 + (len(r_values),) * 2, np.nan)  # [s0, s1, r0, r1]
    filled = np.zeros(panels.shape, dtype=bool)
    panels[at], filled[at] = rel_u, True
    r, s = r_values.tolist(), s_values.tolist()
    missing = [(r[i_r0], r[i_r1], s[i_s0], s[i_s1]) for i_s0, i_s1, i_r0, i_r1 in np.argwhere(~filled)]
    if missing:
        shown = ", ".join(str(c) for c in missing[:10])
        suffix = "" if len(missing) <= 10 else f" and {len(missing) - 10} more"
        print(f"error: {len(missing)} grid cells missing for m={m}: {shown}{suffix}", file=sys.stderr)
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)
    header = "r1\\r0," + ",".join(str(r0) for r0 in r)
    for i_s0, s0 in enumerate(s):
        for i_s1, s1 in enumerate(s):
            lines = (
                f"{r1}," + ",".join(f"{rel:.17g}" for rel in row) + "\n"
                for r1, row in zip(r, panels[i_s0, i_s1].T.tolist())
            )
            _write_csv(out_dir / f"rel_u_m{m}_s0_{s0}_s1_{s1}.csv", header, lines)
    print(f"wrote {len(s) ** 2} matrix files to {out_dir}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    section = "report"
    in_path = _resolve(args.in_file, cfg, section, "in", None, str)
    m = _resolve(args.m, cfg, section, "m", None, int)
    fmt = _resolve(args.format, cfg, section, "format", "csv-matrix", str)
    out_dir_value = _resolve(args.out_dir, cfg, section, "out-dir", None, str, ENV_OUT_DIR)
    if in_path is None or m is None:
        print("error: --in and --m are required", file=sys.stderr)
        return 2
    if m not in (0, 1):
        print(f"error: --m must be 0 or 1, got {m}", file=sys.stderr)
        return 2
    if fmt not in ("csv-matrix", "long-csv"):
        print(f"error: --format must be csv-matrix or long-csv, got {fmt!r}", file=sys.stderr)
        return 2
    if out_dir_value is None:
        print("error: --out-dir is required (flag, SMARTRAR_OUT_DIR or config)", file=sys.stderr)
        return 2

    table = _read_table(Path(in_path), AGGREGATE_HEADER, (float,) * 4 + (int, float, float), key=6)
    rows = table[table[:, 4] == m]
    if not len(rows):
        print(f"error: input contains no rows for m={m}", file=sys.stderr)
        return 1
    # One scenario per distinct cell, sorted by cell; c = 0 and c = 1 columns.
    cells, first, scenario = np.unique(rows[:, :4], axis=0, return_index=True, return_inverse=True)
    u_bar_bar = np.full((len(cells), 2), np.nan)
    present = np.zeros(u_bar_bar.shape, dtype=bool)
    for d, c in enumerate((0.0, 1.0)):
        with_c = rows[:, 5] == c
        at = (scenario.ravel()[with_c], d)
        u_bar_bar[at], present[at] = rows[with_c, 6], True
    gaps = np.flatnonzero(~present.all(axis=1)).tolist()
    for k in gaps[:20]:
        missing_c = [c for c, found in zip((0.0, 1.0), present[k]) if not found]
        print(f"error: missing c={missing_c} rows for scenario {tuple(cells[k].tolist())}", file=sys.stderr)
    if len(gaps) > 20:
        print(f"error: ... and {len(gaps) - 20} more incomplete scenarios", file=sys.stderr)
    if gaps:
        return 1
    in_file_order = np.argsort(first)
    cells = cells[in_file_order]
    rel_u = relative_utility(u_bar_bar[in_file_order], [(m, 0.0), (m, 1.0)])[m]

    out_dir = Path(out_dir_value)
    if fmt == "csv-matrix":
        return _write_relative_matrices(out_dir, cells, rel_u, m)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = write_relative_csv(out_dir / f"rel_u_m{m}_long.csv", cells, rel_u, m)
    print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smartrar",
        description="Two-stage adaptive trial simulator: single trials, grid sweeps, matrix reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trial and emit patient and allocation CSVs")
    sim.add_argument("--r0", type=float, help="infection probability, stage-1 placebo arm")
    sim.add_argument("--r1", type=float, help="infection probability, stage-1 prophylaxis arm")
    sim.add_argument("--s0", type=float, help="death probability after stage-1 placebo")
    sim.add_argument("--s1", type=float, help="death probability after stage-1 prophylaxis")
    sim.add_argument("--m", type=int, choices=(0, 1), help="myopic flag (default 0)")
    sim.add_argument("--c", type=float, help="adaptation exponent (default 0)")
    sim.add_argument("--seed", type=int, help="trial seed (default 0)")
    sim.add_argument("--engine", choices=("conjugate", "mcmc"), help="posterior engine")
    sim.add_argument("--patients", type=int, help="maximum sample size (default 2000)")
    sim.add_argument("--interims", type=int, help="number of scheduled analyses (default 4)")
    sim.add_argument("--out", help="output directory for patients.csv and allocations.csv")
    sim.add_argument("--config", help="INI config file; flags override file values")
    sim.set_defaults(func=cmd_simulate, config_keys=_config_keys(sim))

    swp = sub.add_parser("sweep", help="run a scenario-grid sweep across designs")
    swp.add_argument("--grid", help="'full', 'reduced' or a scenario CSV path (default reduced)")
    swp.add_argument("--designs", help="'all' or comma list like m0c0,m0c1 (default all)")
    swp.add_argument("--replicates", type=int, help="trials per (scenario, design) (default 10)")
    swp.add_argument("--base-seed", type=int, help="base seed of the per-scenario streams (default 0)")
    swp.add_argument("--engine", choices=("conjugate", "mcmc"), help="posterior engine")
    swp.add_argument(
        "--threads", type=int, help="worker processes (default: every CPU this process may use)"
    )
    swp.add_argument("--out-dir", help="output directory")
    swp.add_argument("--config", help="INI config file; flags override file values")
    swp.set_defaults(func=cmd_sweep, config_keys=_config_keys(swp))

    rep = sub.add_parser("report", help="emit relative-utility matrices from a sweep aggregate")
    rep.add_argument("--in", dest="in_file", help="sweep aggregate CSV")
    rep.add_argument("--m", type=int, choices=(0, 1), help="myopic flag to report")
    rep.add_argument("--format", choices=("csv-matrix", "long-csv"), help="output format")
    rep.add_argument("--out-dir", help="output directory")
    rep.add_argument("--config", help="INI config file; flags override file values")
    rep.set_defaults(func=cmd_report, config_keys=_config_keys(rep))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
