"""Command-line front end: simulate, sweep and report commands.

All CSV output uses a fixed column order, a dot decimal separator and
reals serialised with 17 significant digits, so files round-trip exactly
and are byte-stable across runs with identical inputs and seeds.

Each flag's default, type and choices are stated once, in
``build_parser``. Every command accepts ``--config FILE`` pointing at a
flat INI-style file whose section matches the command and whose keys are
its long flags without the dashes (e.g. ``[sweep]`` with ``base-seed =
7``; any other key is an error). A ``[utilities]`` section may override
any of the ten utility-table rows by name. SMARTRAR_THREADS sets
``--threads`` and SMARTRAR_OUT_DIR sets ``--out`` and ``--out-dir``. File
and environment values become the flags' defaults, converted and checked
as the flags are, so a flag wins over the environment, which wins over the
file, which wins over the built-in default.
"""

from __future__ import annotations

import argparse
import configparser
import functools
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
    CANONICAL_DESIGNS,
    ENGINES,
    TERMINAL_ROWS,
    ConfigurationError,
    DesignConfig,
    TrialSettings,
    UtilityTable,
    check_cells,
    reduced_scenario_grid,
    scenario_grid,
)
from .inference import POSTERIOR_IMPLEMENTATION
from .simulator import ENGINE_IMPLEMENTATION, TrialResult, check_seed, run_trial
from .sweep import SweepConfig, SweepError, SweepResult, relative_utility, run_sweep

# The environment variable that sets each long flag's default.
ENV_VARS = {"threads": "SMARTRAR_THREADS", "out": "SMARTRAR_OUT_DIR", "out-dir": "SMARTRAR_OUT_DIR"}

REPLICATES_CSV = "sweep_replicates.csv"
AGGREGATE_CSV = "sweep_aggregate.csv"
MANIFEST_FILE = "manifest.txt"
AGGREGATE_HEADER = "r0,r1,s0,s1,m,c,u_bar_bar,std_err"


def fmt_real(x: float) -> str:
    """17-significant-digit decimal form; guarantees exact float round trips."""
    return format(float(x), ".17g")


def _converted(where: str, convert: type, text: str):
    """``convert(text)``; a ``ConfigurationError`` that names ``where`` if
    ``convert`` rejects it."""
    try:
        return convert(text)
    except ValueError:
        raise ConfigurationError(f"{where}: invalid {convert.__name__} value {text!r}") from None


def _writable_dir(path: str | Path) -> Path:
    """The directory at ``path``, made if missing; ``ConfigurationError``
    if it cannot be made or written to."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigurationError(f"output directory not writable: {exc}") from None
    return out_dir


def _cell_text(r0: float, r1: float, s0: float, s1: float) -> str:
    return f"{r0:.17g},{r1:.17g},{s0:.17g},{s1:.17g}"


def _write_csv(path: Path, header: str, lines: Iterable[str]) -> tuple[Path, str]:
    """Write ``header`` and the newline-terminated ``lines``; ``path`` and the sha256 of the bytes."""
    data = (header + "\n" + "".join(lines)).encode()
    path.write_bytes(data)
    return path, hashlib.sha256(data).hexdigest()


def _read_table(path: Path, header: str, types: tuple[type, ...], key: int) -> np.ndarray:
    """One row per non-blank line after ``header``: its first ``len(types)``
    fields, each converted by its type. Raises ``ConfigurationError`` if the
    file cannot be read, or on another header, a line with another field
    count, a field its type rejects, an r0, r1, s0 or s1 (the first four
    fields) outside [0, 1], or a line whose first ``key`` fields repeat an
    earlier line's."""
    names = header.split(",")
    numbers, values = [], array("d")
    try:
        f = open(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}") from None
    with f:
        if f.readline().strip() != header:
            raise ConfigurationError(f"{path} must start with header {header!r}")
        for ln, line in enumerate(f, start=2):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != len(names):
                raise ConfigurationError(f"{path}:{ln}: expected {len(names)} comma-separated values")
            numbers.append(ln)
            try:
                values.extend([convert(part) for convert, part in zip(types, parts)])
            except ValueError:
                # Convert again, field by field, to name the one rejected.
                for name, convert, part in zip(names, types, parts):
                    _converted(f"{path}:{ln}: {name}", convert, part)
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


def write_manifest(out_dir: Path, command: str, config: dict[str, str], outputs: dict[Path, str]) -> Path:
    """Reproducibility record for one command invocation: versions, the
    outcome sampler and the posterior engine named by ``config["engine"]``,
    command, config and each output file's sha256 as its writer gave it."""
    lines = [
        f"tool_version = {__version__}",
        f"engine_implementation = {ENGINE_IMPLEMENTATION}",
        f"posterior_implementation = {POSTERIOR_IMPLEMENTATION[config['engine']]}",
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
    lines.extend(f"{f.name} = sha256:{digest}" for f, digest in outputs.items())
    path = out_dir / MANIFEST_FILE
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def _utility_config(table: UtilityTable) -> dict[str, str]:
    """The utility of each of the ten rows as a manifest config entry, so
    that a ``[utilities]`` override shows in the manifest."""
    return {f"row_utility.{key}": str(value) for key, value in table.entries().items()}


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _patient_prefixes(n: int) -> tuple[str, ...]:
    """The ``"{i},"`` that starts each patient's line, for ``n`` patients."""
    return tuple(f"{i}," for i in range(n))


def _write_patients_csv(path: Path, patient_rows: np.ndarray, table: UtilityTable) -> tuple[Path, str]:
    """One line per patient: the ten terminal rows are formatted once, as
    ``a1,y1,a2,y2,utility`` with empty stage-two fields when uninfected,
    and each line is its cached prefix followed by its row's text."""
    text = [
        ",".join("" if v is None else str(v) for v in row) + f",{fmt_real(u)}\n"
        for row, u in zip(TERMINAL_ROWS, table.rows)
    ]
    parts = [""] * (2 * len(patient_rows))
    parts[::2] = _patient_prefixes(len(patient_rows))
    parts[1::2] = np.array(text, dtype=object)[patient_rows].tolist()
    return _write_csv(path, "patient,stage1_action,stage1_outcome,stage2_action,stage2_outcome,utility", parts)


def _write_allocations_csv(path: Path, result: TrialResult, pooled: bool) -> tuple[Path, str]:
    """Per adapting analysis, the stage-one pair, then the stage-two pair
    of each stage-one arm, or the pooled pair once with an empty arm."""
    arms = [""] if pooled else ["0", "1"]
    lines = []
    for k, (p1, p2) in enumerate(zip(result.stage1.tolist(), result.stage2.tolist()), start=1):
        for stage, arm, pair in [(1, "", p1)] + [(2, arm, pair) for arm, pair in zip(arms, p2)]:
            lines += [f"{k},{stage},{arm},{action},{fmt_real(p)}\n" for action, p in enumerate(pair)]
    return _write_csv(path, "analysis,stage,stage1_action,action,probability", lines)


def cmd_simulate(args: argparse.Namespace) -> int:
    cell = (args.r0, args.r1, args.s0, args.s1)
    check_cells([cell])
    design = DesignConfig(myopic_m=args.m, adapt_c=args.c)
    settings = TrialSettings(
        max_patients=args.patients, num_interims=args.interims, engine=args.engine, utilities=args.utilities
    )
    settings.check_pooling((design,))
    check_seed(args.seed)
    out_dir = None if args.out is None else _writable_dir(args.out)
    result = run_trial(cell, design, settings, seed=args.seed, keep_records=out_dir is not None)
    if out_dir is not None:
        outputs = dict([
            _write_patients_csv(out_dir / "patients.csv", result.patient_rows, args.utilities),
            _write_allocations_csv(out_dir / "allocations.csv", result, pooled=bool(args.m)),
        ])
        config_snapshot = {
            key: str(getattr(args, key))
            for key in ("r0", "r1", "s0", "s1", "m", "c", "seed", "engine", "patients", "interims")
        }
        config_snapshot.update(_utility_config(args.utilities))
        write_manifest(out_dir, "simulate", config_snapshot, outputs)
    print(f"u_bar={fmt_real(result.mean_utility)}")
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def _scenarios_from_grid(grid: str) -> np.ndarray:
    """The (r0, r1, s0, s1) rows that ``--grid`` names, one per scenario."""
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
    return table


def _designs_from_spec(spec: str) -> list[DesignConfig]:
    all_designs = {f"m{d.myopic_m}c{int(d.adapt_c)}": d for d in CANONICAL_DESIGNS}
    if spec == "all":
        return list(all_designs.values())
    chosen = {}
    for token in spec.split(","):
        token = token.strip()
        if token not in all_designs:
            raise ConfigurationError(
                f"unknown design {token!r}; expected 'all' or a comma list of "
                f"{sorted(all_designs)}"
            )
        if token in chosen:
            raise ConfigurationError(f"design {token!r} is listed twice in {spec!r}")
        chosen[token] = all_designs[token]
    return list(chosen.values())


def write_sweep_csvs(out_dir: Path, result: SweepResult) -> dict[Path, str]:
    """Write the replicate and aggregate CSVs from the result's arrays: one
    line per (scenario, design, replicate) and per (scenario, design).
    Each file's lines for one scenario come from one ``%`` template, built
    once per call over the designs (and replicates), into which each
    scenario's (r0,r1,s0,s1) text and values go. Only one scenario's text
    is held at a time, so the memory used does not grow with the number of
    scenarios. Returns each path with the sha256 of the bytes written to it."""
    designs = [f"{d.myopic_m},{d.adapt_c:.17g}" for d in result.config.designs]
    lines = len(designs) * result.config.replicates
    replicate_lines = "".join(f"%s,{d},{rep},%.17g\n" for d in designs for rep in range(result.config.replicates))
    aggregate_lines = "".join(f"%s,{d},%.17g,%.17g\n" for d in designs)
    paths = [out_dir / REPLICATES_CSV, out_dir / AGGREGATE_CSV]
    digests = [hashlib.sha256(), hashlib.sha256()]
    with open(paths[0], "wb") as replicates, open(paths[1], "wb") as aggregate:
        def write(*texts: str) -> None:
            for f, digest, text in zip((replicates, aggregate), digests, texts):
                data = text.encode()
                f.write(data)
                digest.update(data)
        write("r0,r1,s0,s1,m,c,replicate,u_bar\n", AGGREGATE_HEADER + "\n")
        for cell, u_bars, u, se in zip(result.config.cells, result.utility, result.u_bar_bar, result.std_err):
            cell_text = _cell_text(*cell.tolist())
            # Each line's arguments: the cell text, then its values.
            replicate_args, aggregate_args = [cell_text] * (2 * lines), [cell_text] * (3 * len(designs))
            replicate_args[1::2] = u_bars.ravel().tolist()
            aggregate_args[1::3], aggregate_args[2::3] = u.tolist(), se.tolist()
            write(replicate_lines % tuple(replicate_args), aggregate_lines % tuple(aggregate_args))
    return {path: digest.hexdigest() for path, digest in zip(paths, digests)}


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.out_dir is None:
        raise ConfigurationError("--out-dir is required (flag, SMARTRAR_OUT_DIR or config)")

    cells = _scenarios_from_grid(args.grid)
    sweep_config = SweepConfig(
        cells=cells,
        designs=tuple(_designs_from_spec(args.designs)),
        replicates=args.replicates,
        base_seed=args.base_seed,
        parallelism=args.threads,
        settings=TrialSettings(engine=args.engine, utilities=args.utilities),
    )

    out_dir = _writable_dir(args.out_dir)
    try:
        result = run_sweep(sweep_config)
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outputs = write_sweep_csvs(out_dir, result)
    config_snapshot = {
        "grid": args.grid,
        "designs": args.designs,
        "replicates": str(args.replicates),
        "base_seed": str(args.base_seed),
        "engine": args.engine,
        "threads": "auto" if args.threads is None else str(args.threads),
        "workers": str(result.workers),
        "scenarios": str(len(cells)),
        **_utility_config(args.utilities),
    }
    write_manifest(out_dir, "sweep", config_snapshot, outputs)
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
    return _write_csv(path, "r0,r1,s0,s1,m,rel_u", lines)[0]


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
    _writable_dir(out_dir)
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
    m = args.m
    if args.in_file is None or m is None:
        raise ConfigurationError("--in and --m are required")
    if args.out_dir is None:
        raise ConfigurationError("--out-dir is required (flag, SMARTRAR_OUT_DIR or config)")

    table = _read_table(Path(args.in_file), AGGREGATE_HEADER, (float,) * 4 + (int, float, float), key=6)
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

    out_dir = Path(args.out_dir)
    if args.format == "csv-matrix":
        return _write_relative_matrices(out_dir, cells, rel_u, m)
    _writable_dir(out_dir)
    path = write_relative_csv(out_dir / f"rel_u_m{m}_long.csv", cells, rel_u, m)
    print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------
# parser, config file and environment
# ----------------------------------------------------------------------


def _add_flag(parser: argparse.ArgumentParser, flag: str, default, help: str, **kwargs) -> None:
    """A flag whose help text ends with its default."""
    parser.add_argument(flag, default=default, help=f"{help} (default %(default)s)", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smartrar",
        description="Two-stage adaptive trial simulator: single trials, grid sweeps, matrix reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine_help = "posterior engine: conjugate (Beta per cell) or mcmc (logistic model by quadrature)"
    engine = dict(flag="--engine", default="conjugate", help=engine_help, choices=ENGINES)

    sim = sub.add_parser("simulate", help="run one trial and emit patient and allocation CSVs")
    _add_flag(sim, "--r0", 0.0, "infection probability, stage-1 placebo arm", type=float)
    _add_flag(sim, "--r1", 0.0, "infection probability, stage-1 prophylaxis arm", type=float)
    _add_flag(sim, "--s0", 0.05, "death probability after stage-1 placebo", type=float)
    _add_flag(sim, "--s1", 0.05, "death probability after stage-1 prophylaxis", type=float)
    _add_flag(sim, "--m", 0, "myopic flag", type=int, choices=(0, 1))
    _add_flag(sim, "--c", 0.0, "adaptation exponent", type=float)
    _add_flag(sim, "--seed", 0, "trial seed", type=int)
    _add_flag(sim, **engine)
    _add_flag(sim, "--patients", 2000, "maximum sample size", type=int)
    _add_flag(sim, "--interims", 4, "number of scheduled analyses", type=int)
    sim.add_argument("--out", help="output directory for patients.csv, allocations.csv and manifest.txt")

    swp = sub.add_parser("sweep", help="run a scenario-grid sweep across designs")
    _add_flag(swp, "--grid", "reduced", "'full', 'reduced' or a scenario CSV path")
    _add_flag(swp, "--designs", "all", "'all' or comma list like m0c0,m0c1")
    _add_flag(swp, "--replicates", 10, "trials per (scenario, design)", type=int)
    _add_flag(swp, "--base-seed", 0, "base seed of the per-scenario streams", type=int)
    _add_flag(swp, **engine)
    swp.add_argument("--threads", type=int, help="worker processes (default: every CPU this process may use)")
    swp.add_argument("--out-dir", help="output directory")

    rep = sub.add_parser("report", help="emit relative-utility matrices from a sweep aggregate")
    rep.add_argument("--in", dest="in_file", help="sweep aggregate CSV")
    rep.add_argument("--m", type=int, choices=(0, 1), help="myopic flag to report")
    _add_flag(rep, "--format", "csv-matrix", "output format", choices=("csv-matrix", "long-csv"))
    rep.add_argument("--out-dir", help="output directory")

    for command in (sim, swp, rep):
        command.add_argument("--config", help="INI config file; flags and the environment override its values")
        command.set_defaults(utilities=UtilityTable.default())
    return parser


def _flag_value(action: argparse.Action, where: str, text: str):
    """``text`` converted by the flag's ``type`` and checked against its
    ``choices``, as argparse would take it from the command line."""
    value = text if action.type is None else _converted(where, action.type, text)
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(str(choice) for choice in action.choices)
        raise ConfigurationError(f"{where}: invalid choice {value!r} (choose from {choices})")
    return value


def _configured_defaults(command: argparse.ArgumentParser, name: str, path: str | None) -> dict:
    """The defaults that the ``[name]`` section of the config file at
    ``path`` and then the environment, which wins, give the command's flags,
    keyed by dest, plus ``utilities`` from a ``[utilities]`` section. A key
    that names none of the command's long flags, or a value its flag would
    reject, or a file that does not parse, is a ``ConfigurationError``."""
    if path is None and not any(env in os.environ for env in ENV_VARS.values()):
        return {}
    flags = {o[2:]: a for a in command._actions for o in a.option_strings if o.startswith("--")}
    del flags["help"], flags["config"]
    # No interpolation: a value is taken as written, '%' included.
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        if path is not None and not cfg.read(path):
            raise ConfigurationError(f"config file not found or unreadable: {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"malformed config file {path}: {' '.join(str(exc).split())}") from None
    given = {}  # long flag -> (where the value comes from, its text)
    if cfg.has_section(name):
        unknown = sorted(set(cfg.options(name)) - set(flags))
        if unknown:
            raise ConfigurationError(
                f"{path}: unknown key(s) {', '.join(unknown)} in [{name}]; "
                f"expected any of {', '.join(sorted(flags))}"
            )
        given = {key: (f"{path} [{name}] {key}", text) for key, text in cfg.items(name)}
    given.update(
        (key, (env, os.environ[env])) for key, env in ENV_VARS.items() if key in flags and env in os.environ
    )
    defaults = {flags[key].dest: _flag_value(flags[key], where, text) for key, (where, text) in given.items()}
    if cfg.has_section("utilities"):
        defaults["utilities"] = UtilityTable.from_entries(
            {key: _converted(f"{path} [utilities] {key}", float, text) for key, text in cfg.items("utilities")}
        )
    return defaults


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``main`` restores any default it
    changes before returning."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    try:
        configured = _configured_defaults(command, args.command, args.config)
        if configured:
            # File and environment values become the command's defaults for
            # this parse only, so parsing again lets only the flags given
            # override them.
            built_in = {dest: command.get_default(dest) for dest in configured}
            command.set_defaults(**configured)
            try:
                args = parser.parse_args(argv)
            finally:
                command.set_defaults(**built_in)
        # Looked up by name on each call, so that a replaced cmd_* function
        # is the one run.
        return globals()[f"cmd_{args.command}"](args)
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
