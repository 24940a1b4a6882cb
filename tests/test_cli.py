"""Command-line contracts: flags, config files, CSV stability, exit codes."""

import argparse
import hashlib
import importlib.util
import io
import platform
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import smartrar.cli
from smartrar import (
    CANONICAL_DESIGNS,
    ENGINE_IMPLEMENTATION,
    DesignConfig,
    SweepConfig,
    SweepResult,
    TrialSettings,
    run_sweep,
)
from smartrar.cli import AGGREGATE_HEADER, build_parser, fmt_real, main, write_relative_csv, write_sweep_csvs
from smartrar.core import ENGINES, check_cells, reduced_scenario_grid, scenario_grid
from smartrar.inference import POSTERIOR_IMPLEMENTATION

REDUCED_SWEEP_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_reduced_sweep.py"
FULL_SWEEP_SCRIPT = REDUCED_SWEEP_SCRIPT.with_name("run_full_sweep.py")


def run_cli(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenarios.csv"
    path.write_text("r0,r1,s0,s1\n0.5,0.45,0.05,0.95\n0.1,0.3,0.45,0.5\n")
    return path


@pytest.fixture
def ambiguous_pooling(tmp_path):
    """A [utilities] override that a myopic design cannot pool."""
    path = tmp_path / "ambiguous.ini"
    path.write_text("[utilities]\nsurvived_a1_1_a2_1 = 0.7\n")
    return path


@pytest.fixture
def grid_file(tmp_path):
    # 2x2 r-grid crossed with a single (s0, s1) pair
    rows = ["r0,r1,s0,s1"]
    for r0 in (0.2, 0.8):
        for r1 in (0.2, 0.8):
            rows.append(f"{r0},{r1},0.4,0.4")
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize(
    "section, argv, bad, good",
    [
        ("simulate", ["--out", "{out}"], "patient = 200", "patients = 200"),
        (
            "sweep",
            ["--grid", "{grid}", "--replicates", "1", "--threads", "1", "--out-dir", "{out}"],
            "base_seed = 5",
            "base-seed = 5",
        ),
        ("report", ["--m", "0", "--format", "long-csv", "--out-dir", "{out}"], "input = {agg}",
         "in = {agg}"),
    ],
    ids=["simulate", "sweep", "report"],
)
def test_unknown_config_key_exit_2(tmp_path, scenario_file, capsys, section, argv, bad, good):
    aggregate = tmp_path / "agg.csv"
    aggregate.write_text("r0,r1,s0,s1,m,c,u_bar_bar,std_err\n0.1,0.2,0.3,0.4,0,0,0.5,0\n"
                         "0.1,0.2,0.3,0.4,0,1,0.6,0\n")
    out_dir = tmp_path / "out"
    paths = dict(out=out_dir, grid=scenario_file, agg=aggregate)
    argv = [a.format(**paths) for a in argv]
    config = tmp_path / "run.ini"
    config.write_text(f"[{section}]\n{bad.format(**paths)}\n")
    assert run_cli(section, "--config", str(config), *argv) == 2
    assert bad.split()[0] in capsys.readouterr().err
    assert not out_dir.exists()
    # the key spelled as the command's flag is accepted
    config.write_text(f"[{section}]\n{good.format(**paths)}\n")
    assert run_cli(section, "--config", str(config), *argv) == 0
    assert out_dir.exists()


@pytest.mark.parametrize(
    "command, config, env, flags, threads",
    [
        ("sweep", "", {}, [], "auto"),
        ("sweep", "threads = 3", {}, [], "3"),
        ("sweep", "threads = 3", {"SMARTRAR_THREADS": "2"}, [], "2"),
        ("sweep", "threads = 3", {"SMARTRAR_THREADS": "2"}, ["--threads", "1"], "1"),
        # a value its flag would reject fails, even where a flag shadows it
        ("report", "m = 3", {}, ["--m", "0"], None),
        ("report", "format = pdf", {}, [], None),
        ("simulate", "engine = foo", {}, [], None),
        ("sweep", "", {"SMARTRAR_THREADS": "abc"}, [], None),
        ("simulate", "[utilities]\ndied_a1_0_a2_0 = abc", {}, [], None),
    ],
    ids=["default", "file", "environment", "flag",
         "file-m", "file-format", "file-engine", "env-threads", "file-utilities"],
)
def test_file_and_environment_values(
    tmp_path, scenario_file, capsys, monkeypatch, command, config, env, flags, threads
):
    """Flag > environment > file > default for ``threads``; a file or
    environment value is checked like a flag, so a bad one exits 2 before
    any output directory is made."""
    for name in ("SMARTRAR_THREADS", "SMARTRAR_OUT_DIR"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    aggregate = tmp_path / "agg.csv"
    aggregate.write_text("r0,r1,s0,s1,m,c,u_bar_bar,std_err\n0.1,0.2,0.3,0.4,0,0,0.5,0\n"
                         "0.1,0.2,0.3,0.4,0,1,0.6,0\n")
    out_dir = tmp_path / "out"
    argv = {
        "simulate": ["--out", str(out_dir)],
        "sweep": ["--grid", str(scenario_file), "--replicates", "1", "--out-dir", str(out_dir)],
        "report": ["--in", str(aggregate), "--m", "0", "--out-dir", str(out_dir)],
    }[command]
    path = tmp_path / "run.ini"
    path.write_text(f"[{command}]\n{config}\n")
    code = run_cli(command, "--config", str(path), *argv, *flags)
    if threads is None:
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid" in err
        if "utilities" in config:
            assert f"{path} [utilities] died_a1_0_a2_0: invalid float value 'abc'" in err
        assert not out_dir.exists()
    else:
        assert code == 0
        assert f"\nthreads = {threads}\n" in (out_dir / "manifest.txt").read_text()


@pytest.mark.parametrize(
    "command, config, env, configured, built_in",
    [
        ("simulate", "[simulate]\npatients = 1000\n", {}, "patients = 1000", "patients = 2000"),
        ("sweep", "", {"SMARTRAR_THREADS": "1"}, "threads = 1", "threads = auto"),
    ],
    ids=["file", "environment"],
)
def test_configured_defaults_last_one_call(
    tmp_path, scenario_file, monkeypatch, command, config, env, configured, built_in
):
    """The parser is built once per process, but a value that a config
    file or the environment gave one call is not a default of the next."""
    for name in ("SMARTRAR_THREADS", "SMARTRAR_OUT_DIR"):
        monkeypatch.delenv(name, raising=False)
    argv = {
        "simulate": ["simulate", "--out"],
        "sweep": ["sweep", "--grid", str(scenario_file), "--replicates", "1", "--out-dir"],
    }[command]
    path = tmp_path / "run.ini"
    path.write_text(config)
    # argv is parsed a second time only when a file or the environment
    # supplied a default.
    parses = []
    parser = smartrar.cli._parser()
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: parses.append(argv) or parse_args(argv))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert run_cli(*argv, str(tmp_path / "first"), "--config", str(path)) == 0
    assert len(parses) == 2
    for name in env:
        monkeypatch.delenv(name)
    assert run_cli(*argv, str(tmp_path / "second")) == 0
    assert len(parses) == 3
    assert f"\n{configured}\n" in (tmp_path / "first" / "manifest.txt").read_text()
    assert f"\n{built_in}\n" in (tmp_path / "second" / "manifest.txt").read_text()


@pytest.mark.parametrize(
    "command, text, code",
    [
        ("sweep", "out-dir = {out}\n", 2),
        ("sweep", "[sweep]\ngrid\n", 2),
        # written as the bytes ff fe, which are not UTF-8
        ("sweep", "[sweep]\nout-dir = \udcff\udcfe\n", 2),
        ("simulate", "[simulate]\nout = {out}\n", 0),
        ("sweep", "[sweep]\nout-dir = {out}\n", 0),
    ],
    ids=["no-section-header", "key-without-value", "not-utf-8", "percent-in-out", "percent-in-out-dir"],
)
def test_config_file_syntax(tmp_path, scenario_file, capsys, monkeypatch, command, text, code):
    """A config file that does not parse exits 2, naming the file, before
    any output directory is made; a '%' in a value is taken as written."""
    monkeypatch.delenv("SMARTRAR_OUT_DIR", raising=False)
    out_dir = tmp_path / "o100%x"
    config = tmp_path / "run.ini"
    config.write_bytes(text.format(out=out_dir).encode("utf-8", "surrogateescape"))
    argv = {"simulate": [], "sweep": ["--grid", str(scenario_file), "--replicates", "1", "--threads", "1"]}[command]
    if code == 2:
        argv += ["--out-dir", str(out_dir)]
    assert run_cli(command, "--config", str(config), *argv) == code
    if code == 2:
        assert capsys.readouterr().err.startswith(f"error: malformed config file {config}: ")
        assert not out_dir.exists()
    else:
        assert (out_dir / "manifest.txt").is_file()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_manifest_records_the_utility_table(tmp_path, scenario_file, command):
    """A [utilities] override changes the manifest's [config] section by
    the rows it overrides, and is not a default of the next call."""
    argv = {
        "simulate": ["simulate", "--r0", "0.5", "--seed", "3", "--out"],
        "sweep": ["sweep", "--grid", str(scenario_file), "--replicates", "1", "--threads", "1", "--out-dir"],
    }[command]
    path = tmp_path / "utilities.ini"
    path.write_text("[utilities]\nuninfected_a1_1 = 0.8\n")
    assert run_cli(*argv, str(tmp_path / "override"), "--config", str(path)) == 0
    assert run_cli(*argv, str(tmp_path / "default")) == 0
    manifests = [(tmp_path / name / "manifest.txt").read_text() for name in ("override", "default")]
    sections = [set(text.split("[config]\n")[1].split("\n\n")[0].splitlines()) for text in manifests]
    assert sections[0] ^ sections[1] == {
        "row_utility.uninfected_a1_1 = 0.8", "row_utility.uninfected_a1_1 = 1.0"
    }


@pytest.mark.parametrize("case", ["report-missing", "report-directory", "sweep-directory"])
def test_unreadable_input_exit_2(tmp_path, capsys, case):
    """An input path that cannot be read is a configuration error naming
    the path, found before any output directory is made."""
    argv = {
        "report-missing": ["report", "--in", str(tmp_path / "missing.csv"), "--m", "0"],
        "report-directory": ["report", "--in", str(tmp_path), "--m", "0"],
        "sweep-directory": ["sweep", "--grid", str(tmp_path), "--threads", "1"],
    }[case]
    out_dir = tmp_path / "out"
    assert run_cli(*argv, "--out-dir", str(out_dir)) == 2
    assert f"error: cannot read {argv[2]}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "report"])
def test_help_shows_each_default(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    shown = " ".join(capsys.readouterr().out.split())
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    defaults = [
        a.default for a in commands[command]._actions if a.default not in (None, argparse.SUPPRESS)
    ]
    assert defaults
    for default in defaults:
        assert f"(default {default})" in shown


def test_fmt_real_round_trips():
    for value in (0.1, 1 / 3, 0.9025, 1.0, 11 / 42, 1e-17):
        assert float(fmt_real(value)) == value
    assert fmt_real(float("nan")) == "nan"


class TestSimulate:
    def test_no_infections_gives_unit_utility(self, capsys):
        assert run_cli("simulate", "--r0", "0", "--r1", "0", "--seed", "3") == 0
        out = capsys.readouterr().out
        assert out.startswith("u_bar=")
        assert float(out.split("=")[1]) == 1.0

    def test_prose_scenario_calibration(self, capsys):
        code = run_cli(
            "simulate", "--c", "0", "--m", "0",
            "--r0", "0.1", "--r1", "0.3", "--s0", "0.45", "--s1", "0.5", "--seed", "1",
        )
        assert code == 0
        u_bar = float(capsys.readouterr().out.split("=")[1])
        assert abs(u_bar - 0.9025) < 0.02

    def test_byte_identical_rerun(self, tmp_path, capsys):
        args = (
            "simulate", "--r0", "0.1", "--r1", "0.3", "--s0", "0.45", "--s1", "0.5",
            "--m", "0", "--c", "1", "--seed", "7",
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(*args, "--out", str(out_a)) == 0
        assert run_cli(*args, "--out", str(out_b)) == 0
        for name in ("patients.csv", "allocations.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        summaries = {line for line in capsys.readouterr().out.splitlines() if line}
        assert len(summaries) == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_manifest_lists_digests(self, tmp_path, capsys, engine):
        out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--r0", "0.5", "--r1", "0.45", "--s0", "0.05", "--s1", "0.95",
            "--m", "1", "--c", "1", "--seed", "3", "--engine", engine,
            "--patients", "200", "--interims", "2", "--out", str(out),
        ) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "command = simulate" in manifest
        for name in ("patients.csv", "allocations.csv"):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert f"\n{name} = sha256:{digest}\n" in manifest
        for key, value in [("r0", "0.5"), ("r1", "0.45"), ("s0", "0.05"), ("s1", "0.95"), ("m", "1"),
                           ("c", "1.0"), ("seed", "3"), ("engine", engine), ("patients", "200"),
                           ("interims", "2")]:
            assert f"\n{key} = {value}\n" in manifest
        assert f"\nposterior_implementation = {POSTERIOR_IMPLEMENTATION[engine]}\n" in manifest
        assert sorted(p.name for p in out.iterdir()) == ["allocations.csv", "manifest.txt", "patients.csv"]

    def test_patient_csv_shape(self, tmp_path):
        out = tmp_path / "sim"
        run_cli("simulate", "--r0", "0.5", "--r1", "0.5", "--patients", "100",
                "--interims", "4", "--seed", "2", "--out", str(out))
        lines = (out / "patients.csv").read_text().splitlines()
        assert lines[0] == "patient,stage1_action,stage1_outcome,stage2_action,stage2_outcome,utility"
        assert len(lines) == 101

    @pytest.mark.parametrize("m", [0, 1])
    def test_allocations_csv_layout(self, tmp_path, m):
        out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--r0", "0.5", "--r1", "0.45", "--s0", "0.05", "--s1", "0.95",
            "--m", str(m), "--c", "1", "--seed", "5", "--out", str(out),
        ) == 0
        lines = (out / "allocations.csv").read_text().splitlines()
        assert lines[0] == "analysis,stage,stage1_action,action,probability"
        groups: dict[tuple[int, int, str], list[tuple[int, float]]] = {}
        for line in lines[1:]:
            analysis, stage, a1, action, prob = line.split(",")
            key = (int(analysis), int(stage), a1)
            groups.setdefault(key, []).append((int(action), float(prob)))
        # stage two: one row set per stage-one arm, or one pooled set with
        # an empty stage1_action under a myopic design
        stage2_labels = [""] if m else ["0", "1"]
        assert list(groups) == [
            key
            for analysis in (1, 2, 3)
            for key in [(analysis, 1, "")] + [(analysis, 2, a1) for a1 in stage2_labels]
        ]
        for rows in groups.values():
            assert [action for action, _ in rows] == [0, 1]
            assert sum(prob for _, prob in rows) == pytest.approx(1.0, abs=1e-12)

    def test_out_is_a_file_exit_2_before_the_trial(self, tmp_path, capsys, monkeypatch):
        import smartrar.cli

        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setattr(smartrar.cli, "run_trial", lambda *args, **kwargs: pytest.fail("trial ran"))
        assert run_cli("simulate", "--out", str(taken)) == 2
        assert "error: output directory not writable" in capsys.readouterr().err

    def test_invalid_flags_exit_2(self, tmp_path, capsys):
        assert run_cli("simulate", "--r0", "1.5") == 2
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--engine", "nonsense")
        assert exc.value.code == 2
        # Rejected before the output directory is made.
        for flag, value in [
            ("--seed", "-1"), ("--patients", "0"), ("--interims", "3"), ("--c", "-1"),
            ("--r0", "1.5"), ("--s1", "nan"),
        ]:
            out = tmp_path / f"sim{flag}"
            assert run_cli("simulate", flag, value, "--out", str(out)) == 2, flag
            assert not out.exists(), flag

    def test_ambiguous_pooled_utilities_exit_2(self, tmp_path, ambiguous_pooling, capsys):
        out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--config", str(ambiguous_pooling), "--m", "1", "--c", "1",
            "--r0", "0.5", "--r1", "0.5", "--out", str(out),
        ) == 2
        assert "pooled stage-2 utilities are ambiguous" in capsys.readouterr().err
        assert not out.exists()
        # the same table is well defined for a dynamic design
        assert run_cli(
            "simulate", "--config", str(ambiguous_pooling), "--m", "0", "--c", "1",
            "--r0", "0.5", "--r1", "0.5", "--out", str(out),
        ) == 0

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(
            "[simulate]\nr0 = 0\nr1 = 0\ns0 = 0.5\ns1 = 0.5\nseed = 5\npatients = 200\ninterims = 4\n"
        )
        assert run_cli("simulate", "--config", str(config)) == 0
        first = float(capsys.readouterr().out.split("=")[1])
        assert first == 1.0
        # flag overrides the file: force certain infection and death
        config2 = tmp_path / "run2.ini"
        config2.write_text(
            "[simulate]\nr0 = 0\nr1 = 0\ns0 = 1\ns1 = 1\nseed = 5\npatients = 200\ninterims = 4\n"
        )
        assert run_cli("simulate", "--config", str(config2), "--r0", "1", "--r1", "1") == 0
        second = float(capsys.readouterr().out.split("=")[1])
        assert second == 0.0

    def test_utility_override_section(self, tmp_path, capsys):
        config = tmp_path / "util.ini"
        config.write_text(
            "[utilities]\n"
            + "\n".join(f"survived_a1_{a1}_a2_{a2} = 0.25" for a1 in (0, 1) for a2 in (0, 1))
            + "\n"
        )
        assert run_cli(
            "simulate", "--config", str(config),
            "--r0", "1", "--r1", "1", "--s0", "0", "--s1", "0", "--seed", "1",
        ) == 0
        u_bar = float(capsys.readouterr().out.split("=")[1])
        assert u_bar == 0.25


class TestSweep:
    def test_scenario_file_sweep(self, tmp_path, scenario_file):
        out_dir = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--grid", str(scenario_file), "--replicates", "2",
            "--base-seed", "1", "--threads", "1", "--out-dir", str(out_dir),
        )
        assert code == 0
        agg = (out_dir / "sweep_aggregate.csv").read_text().splitlines()
        assert agg[0] == "r0,r1,s0,s1,m,c,u_bar_bar,std_err"
        assert len(agg) == 1 + 2 * 4
        reps = (out_dir / "sweep_replicates.csv").read_text().splitlines()
        assert reps[0] == "r0,r1,s0,s1,m,c,replicate,u_bar"
        assert len(reps) == 1 + 2 * 4 * 2

    def test_rerun_is_byte_identical(self, tmp_path, scenario_file):
        dirs = [tmp_path / "s1", tmp_path / "s2"]
        for d in dirs:
            assert run_cli(
                "sweep", "--grid", str(scenario_file), "--replicates", "1",
                "--base-seed", "9", "--threads", "1", "--out-dir", str(d),
            ) == 0
        assert (dirs[0] / "sweep_aggregate.csv").read_bytes() == (
            dirs[1] / "sweep_aggregate.csv"
        ).read_bytes()
        assert (dirs[0] / "sweep_replicates.csv").read_bytes() == (
            dirs[1] / "sweep_replicates.csv"
        ).read_bytes()

    def test_manifest_lists_digests(self, tmp_path, scenario_file):
        out_dir = tmp_path / "sweep"
        run_cli(
            "sweep", "--grid", str(scenario_file), "--replicates", "1",
            "--base-seed", "2", "--threads", "1", "--out-dir", str(out_dir),
        )
        manifest = (out_dir / "manifest.txt").read_text()
        assert "command = sweep" in manifest
        assert "sweep_aggregate.csv = sha256:" in manifest
        digest = hashlib.sha256((out_dir / "sweep_aggregate.csv").read_bytes()).hexdigest()
        assert digest in manifest
        assert f"engine_implementation = {ENGINE_IMPLEMENTATION}" in manifest
        assert f"numpy_version = {np.__version__}" in manifest
        assert f"python_version = {platform.python_version()}" in manifest
        assert "threads = 1\nworkers = 1\n" in manifest
        # the posterior engine is named, so the logistic engine's outputs
        # can be told from those of the sampler it replaced
        assert "\nposterior_implementation = beta-conjugate\n" in manifest
        out_dir = tmp_path / "sweep_logistic"
        assert run_cli(
            "sweep", "--grid", str(scenario_file), "--designs", "m0c1", "--replicates", "1",
            "--engine", "mcmc", "--threads", "1", "--out-dir", str(out_dir),
        ) == 0
        manifest = (out_dir / "manifest.txt").read_text()
        assert "\nposterior_implementation = logistic-gauss-hermite-k7\n" in manifest
        assert "\nengine = mcmc\n" in manifest

    def test_mcmc_sweep(self, tmp_path, scenario_file, monkeypatch):
        # 2 scenarios x all designs x 1 replicate under the logistic engine.
        # One scenario per block, so that two threads run two work items in
        # a pool.
        import smartrar.sweep

        monkeypatch.setattr(smartrar.sweep, "BLOCK_SCENARIOS", 1)
        written = {}
        for threads in ("1", "2"):
            out_dir = tmp_path / threads
            assert run_cli(
                "sweep", "--grid", str(scenario_file), "--engine", "mcmc", "--replicates", "1",
                "--base-seed", "4", "--threads", threads, "--out-dir", str(out_dir),
            ) == 0
            written[threads] = [
                (out_dir / name).read_bytes() for name in ("sweep_replicates.csv", "sweep_aggregate.csv")
            ]
        assert written["1"] == written["2"]

    def test_ambiguous_pooled_utilities_exit_2(
        self, tmp_path, scenario_file, ambiguous_pooling, capsys
    ):
        out_dir = tmp_path / "sweep"
        assert run_cli(
            "sweep", "--config", str(ambiguous_pooling), "--grid", str(scenario_file),
            "--designs", "m1c1", "--replicates", "1", "--threads", "1",
            "--out-dir", str(out_dir),
        ) == 2
        assert "pooled stage-2 utilities are ambiguous" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_worker_crash_exit_1(self, tmp_path, scenario_file, capsys, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        import smartrar.sweep

        class CrashingPool:
            def __init__(self, max_workers):
                pass

            def map(self, fn, tasks):
                raise BrokenProcessPool("worker exited")

            def shutdown(self):
                pass

        monkeypatch.setattr(smartrar.sweep, "ProcessPoolExecutor", CrashingPool)
        # one scenario per block, so the two scenarios make two work items
        monkeypatch.setattr(smartrar.sweep, "BLOCK_SCENARIOS", 1)
        assert run_cli(
            "sweep", "--grid", str(scenario_file), "--replicates", "1", "--threads", "2",
            "--out-dir", str(tmp_path / "sweep"),
        ) == 1
        assert "worker process died" in capsys.readouterr().err

    def test_workers_capped_at_blocks(self, tmp_path, scenario_file, monkeypatch):
        import smartrar.sweep

        sizes = []

        class RecordingPool:
            """Runs the blocks in this process and records the pool size."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, tasks):
                return map(fn, tasks)

            def shutdown(self):
                pass

        monkeypatch.setattr(smartrar.sweep, "ProcessPoolExecutor", RecordingPool)
        common = ("sweep", "--grid", str(scenario_file), "--replicates", "1")
        # Two scenarios make one block: no pool, one worker.
        assert run_cli(*common, "--threads", "3", "--out-dir", str(tmp_path / "one")) == 0
        assert sizes == []
        assert "threads = 3\nworkers = 1\n" in (tmp_path / "one" / "manifest.txt").read_text()
        # One scenario per block makes two blocks: a pool of two.
        monkeypatch.setattr(smartrar.sweep, "BLOCK_SCENARIOS", 1)
        assert run_cli(*common, "--threads", "64", "--out-dir", str(tmp_path / "two")) == 0
        assert sizes == [2]
        assert "threads = 64\nworkers = 2\n" in (tmp_path / "two" / "manifest.txt").read_text()

    def test_designs_subset(self, tmp_path, scenario_file):
        out_dir = tmp_path / "sweep"
        assert run_cli(
            "sweep", "--grid", str(scenario_file), "--designs", "m0c0,m0c1",
            "--replicates", "1", "--threads", "1", "--out-dir", str(out_dir),
        ) == 0
        agg = (out_dir / "sweep_aggregate.csv").read_text().splitlines()
        assert len(agg) == 1 + 2 * 2

    def test_unknown_design_exit_2(self, tmp_path, scenario_file, capsys):
        assert run_cli(
            "sweep", "--grid", str(scenario_file), "--designs", "m2c0",
            "--threads", "1", "--out-dir", str(tmp_path / "x"),
        ) == 2
        assert "unknown design" in capsys.readouterr().err

    def test_repeated_design_exit_2(self, tmp_path, scenario_file, capsys):
        # the design would run twice, and the relative utilities would keep
        # only one of its columns
        out_dir = tmp_path / "sweep"
        assert run_cli(
            "sweep", "--grid", str(scenario_file), "--designs", "m0c0,m0c1,m0c1",
            "--replicates", "1", "--threads", "1", "--out-dir", str(out_dir),
        ) == 2
        assert "design 'm0c1' is listed twice" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_out_dir_exit_2(self, scenario_file, capsys, monkeypatch):
        monkeypatch.delenv("SMARTRAR_OUT_DIR", raising=False)
        assert run_cli("sweep", "--grid", str(scenario_file), "--threads", "1") == 2

    @pytest.mark.parametrize(
        "flag", [("--replicates", "0"), ("--threads", "0"), ("--base-seed", "-1")]
    )
    def test_invalid_sweep_config_creates_no_directory(self, tmp_path, flag, capsys):
        out_dir = tmp_path / "never"
        assert run_cli("sweep", "--grid", "reduced", *flag, "--out-dir", str(out_dir)) == 2
        assert not out_dir.exists()

    def test_env_var_out_dir(self, tmp_path, scenario_file, monkeypatch):
        out_dir = tmp_path / "from_env"
        monkeypatch.setenv("SMARTRAR_OUT_DIR", str(out_dir))
        monkeypatch.setenv("SMARTRAR_THREADS", "1")
        assert run_cli(
            "sweep", "--grid", str(scenario_file), "--replicates", "1",
        ) == 0
        assert (out_dir / "sweep_aggregate.csv").exists()

    def test_bad_scenario_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        for text, message in [
            ("nope\n", "must start with header"),
            ("r0,r1,s0,s1\n0.5,0.45,0.05,0.95\n0.1,abc,0.45,0.5\n", f"{bad}:3: r1: invalid float value 'abc'"),
        ]:
            bad.write_text(text)
            assert run_cli("sweep", "--grid", str(bad), "--threads", "1",
                           "--out-dir", str(tmp_path / "o")) == 2
            assert message in capsys.readouterr().err

    def test_repeated_scenario_exit_2(self, tmp_path, capsys):
        # a repeated scenario would run twice, on two streams, and a
        # report keyed by scenario would keep only one of its results
        grid = tmp_path / "twice.csv"
        grid.write_text("r0,r1,s0,s1\n0.5,0.45,0.05,0.95\n0.1,0.3,0.45,0.5\n0.5,0.45,0.05,0.95\n")
        out_dir = tmp_path / "o"
        assert run_cli("sweep", "--grid", str(grid), "--replicates", "3", "--threads", "1",
                       "--out-dir", str(out_dir)) == 2
        assert f"{grid}:4: repeats the (r0, r1, s0, s1) of line 2" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_reduced_grid_row_counts(self, tmp_path):
        out_dir = tmp_path / "reduced"
        assert run_cli(
            "sweep", "--grid", "reduced", "--replicates", "1",
            "--base-seed", "0", "--threads", "1", "--out-dir", str(out_dir),
        ) == 0
        agg_lines = (out_dir / "sweep_aggregate.csv").read_text().splitlines()
        assert len(agg_lines) == 1 + 400 * 4
        report_dir = tmp_path / "reduced_report"
        assert run_cli(
            "report", "--in", str(out_dir / "sweep_aggregate.csv"), "--m", "1",
            "--format", "long-csv", "--out-dir", str(report_dir),
        ) == 0
        long_lines = (report_dir / "rel_u_m1_long.csv").read_text().splitlines()
        assert len(long_lines) == 1 + 400


class TestReport:
    def _sweep(self, tmp_path, grid_file, out_name="sweep"):
        out_dir = tmp_path / out_name
        assert run_cli(
            "sweep", "--grid", str(grid_file), "--replicates", "2",
            "--base-seed", "3", "--threads", "1", "--out-dir", str(out_dir),
        ) == 0
        return out_dir / "sweep_aggregate.csv"

    def test_matrix_format(self, tmp_path, grid_file):
        aggregate = self._sweep(tmp_path, grid_file)
        out_dir = tmp_path / "report"
        assert run_cli(
            "report", "--in", str(aggregate), "--m", "0",
            "--format", "csv-matrix", "--out-dir", str(out_dir),
        ) == 0
        matrix = out_dir / "rel_u_m0_s0_0.4_s1_0.4.csv"
        lines = matrix.read_text().splitlines()
        assert lines[0] == "r1\\r0,0.2,0.8"
        assert len(lines) == 3
        value = float(lines[1].split(",")[1])
        assert 0.5 < value < 1.5

    def test_long_format_row_count(self, tmp_path, grid_file):
        aggregate = self._sweep(tmp_path, grid_file)
        out_dir = tmp_path / "report"
        assert run_cli(
            "report", "--in", str(aggregate), "--m", "1",
            "--format", "long-csv", "--out-dir", str(out_dir),
        ) == 0
        lines = (out_dir / "rel_u_m1_long.csv").read_text().splitlines()
        assert lines[0] == "r0,r1,s0,s1,m,rel_u"
        assert len(lines) == 1 + 4

    def test_missing_baseline_exit_1(self, tmp_path, grid_file, capsys):
        aggregate = self._sweep(tmp_path, grid_file)
        adaptive_only = tmp_path / "adaptive_only.csv"
        lines = aggregate.read_text().splitlines()
        kept = [lines[0]] + [l for l in lines[1:] if l.split(",")[5] == "1"]
        adaptive_only.write_text("\n".join(kept) + "\n")
        assert run_cli(
            "report", "--in", str(adaptive_only), "--m", "0",
            "--format", "long-csv", "--out-dir", str(tmp_path / "r"),
        ) == 1
        assert "missing c=" in capsys.readouterr().err

    def test_incomplete_grid_exit_1(self, tmp_path, grid_file, capsys):
        aggregate = self._sweep(tmp_path, grid_file)
        lines = aggregate.read_text().splitlines()
        clipped = tmp_path / "clipped.csv"
        clipped.write_text("\n".join(lines[:-4]) + "\n")  # drop one scenario entirely
        assert run_cli(
            "report", "--in", str(clipped), "--m", "0",
            "--format", "csv-matrix", "--out-dir", str(tmp_path / "r"),
        ) == 1
        assert "missing" in capsys.readouterr().err

    def test_report_round_trip_matches_sweep(self, tmp_path, grid_file):
        aggregate = self._sweep(tmp_path, grid_file)
        out_dir = tmp_path / "report"
        assert run_cli("report", "--in", str(aggregate), "--m", "0",
                       "--format", "long-csv", "--out-dir", str(out_dir)) == 0
        # the same sweep in-process, through the same writer
        result = run_sweep(
            SweepConfig(
                cells=[(r0, r1, 0.4, 0.4) for r0 in (0.2, 0.8) for r1 in (0.2, 0.8)],
                designs=CANONICAL_DESIGNS,
                replicates=2,
                base_seed=3,
                parallelism=1,
            )
        )
        expected = write_relative_csv(
            tmp_path / "expected.csv", result.config.cells, result.relative[0], 0
        )
        assert (out_dir / "rel_u_m0_long.csv").read_bytes() == expected.read_bytes()

    def test_a_true_myopic_flag_round_trips_as_1(self, tmp_path):
        """A design made with ``myopic_m=True`` is written with m = 1, and
        ``report`` reads that sweep back."""
        designs = tuple(DesignConfig(myopic_m=True, adapt_c=c) for c in (0.0, 1.0))
        result = run_sweep(
            SweepConfig(
                cells=[(r0, r1, 0.4, 0.4) for r0 in (0.2, 0.8) for r1 in (0.2, 0.8)],
                designs=designs,
                replicates=2,
                base_seed=3,
                parallelism=1,
                settings=TrialSettings(max_patients=400),
            )
        )
        write_sweep_csvs(tmp_path, result)
        for name in ("sweep_replicates.csv", "sweep_aggregate.csv"):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            assert {row.split(",")[4] for row in rows} == {"1"}
        out_dir = tmp_path / "report"
        assert run_cli("report", "--in", str(tmp_path / "sweep_aggregate.csv"), "--m", "1",
                       "--format", "long-csv", "--out-dir", str(out_dir)) == 0
        expected = write_relative_csv(tmp_path / "expected.csv", result.config.cells, result.relative[1], 1)
        assert (out_dir / "rel_u_m1_long.csv").read_bytes() == expected.read_bytes()

    def test_long_format_accepts_any_scenario_set(self, tmp_path, scenario_file, capsys):
        # two scenarios that share no (s0, s1) pair: no r0 x r1 x s0 x s1 grid
        aggregate = self._sweep(tmp_path, scenario_file)
        out_dir = tmp_path / "report"
        assert run_cli("report", "--in", str(aggregate), "--m", "0",
                       "--format", "long-csv", "--out-dir", str(out_dir)) == 0
        lines = (out_dir / "rel_u_m0_long.csv").read_text().splitlines()
        assert [[float(v) for v in line.split(",")[:4]] for line in lines[1:]] == [
            [0.5, 0.45, 0.05, 0.95],
            [0.1, 0.3, 0.45, 0.5],
        ]
        # the matrix layout still needs the complete grid
        assert run_cli("report", "--in", str(aggregate), "--m", "0",
                       "--format", "csv-matrix", "--out-dir", str(tmp_path / "matrix")) == 1
        assert "grid cells missing for m=0" in capsys.readouterr().err

    def test_out_of_range_probability_exit_2(self, tmp_path, capsys):
        aggregate = tmp_path / "agg.csv"
        for row, message in [
            ("1.5,0.2,0.3,0.4,0,0,0.5,0", "r0 must be a probability"),
            ("0.1,0.2,0.3,0.4,0,zero,0.5,0", f"{aggregate}:2: c: invalid float value 'zero'"),
        ]:
            aggregate.write_text(f"r0,r1,s0,s1,m,c,u_bar_bar,std_err\n{row}\n")
            assert run_cli("report", "--in", str(aggregate), "--m", "0",
                           "--out-dir", str(tmp_path / "r")) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv-matrix", "long-csv"])
    def test_out_dir_is_a_file_exit_2(self, tmp_path, capsys, fmt):
        aggregate = tmp_path / "agg.csv"
        aggregate.write_text("r0,r1,s0,s1,m,c,u_bar_bar,std_err\n0.2,0.2,0.4,0.4,0,0,0.5,0\n"
                             "0.2,0.2,0.4,0.4,0,1,0.6,0\n")
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli("report", "--in", str(aggregate), "--m", "0", "--format", fmt,
                       "--out-dir", str(taken)) == 2
        assert "error: output directory not writable" in capsys.readouterr().err
        # the same input is well formed for either format
        assert run_cli("report", "--in", str(aggregate), "--m", "0", "--format", fmt,
                       "--out-dir", str(tmp_path / "report")) == 0

    def test_repeated_row_exit_2(self, tmp_path, grid_file, capsys):
        aggregate = self._sweep(tmp_path, grid_file)
        lines = aggregate.read_text().splitlines()
        # the second scenario's m = 0, c = 1 row again, with another value
        repeated = ",".join(lines[6].split(",")[:6] + ["0.5", "0"])
        twice = tmp_path / "twice.csv"
        twice.write_text("\n".join(lines + [repeated]) + "\n")
        out_dir = tmp_path / "r"
        assert run_cli("report", "--in", str(twice), "--m", "0",
                       "--format", "long-csv", "--out-dir", str(out_dir)) == 2
        assert f"{twice}:{len(lines) + 1}: repeats the (r0, r1, s0, s1, m, c) of line 7" in (
            capsys.readouterr().err
        )
        assert not out_dir.exists()


# SHA-256 of the reduced-grid outputs at base seed 0 (10 replicates, one
# worker). They depend on numpy's multinomial sampler, so a numpy release
# that changes it moves them.
PINNED_SHA256 = {
    "sweep_replicates.csv": "3f54c19ab89752c1cc99a53f13048c3940b63f2122dc8e95d8674570e03fe588",
    "sweep_aggregate.csv": "64abbaad7f77fb8f4490e9e6918e4df5606fc4ecf070a334532146dd2c5d3786",
    "rel_u_m0_long.csv": "eb86cc7fbb80ade67c071c4ca72790443b6e258d8371c91558d1ef57624c933b",
    "rel_u_m1_long.csv": "69f8bb209cef1de48c67cc7ce20fdf486c720f375de26cd0646f4c9552b41860",
}


def test_reduced_grid_outputs_are_pinned(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--grid", "reduced", "--base-seed", "0", "--threads", "1",
                   "--out-dir", str(out_dir)) == 0
    for m in (0, 1):
        assert run_cli("report", "--in", str(out_dir / "sweep_aggregate.csv"), "--m", str(m),
                       "--format", "long-csv", "--out-dir", str(out_dir)) == 0
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in PINNED_SHA256
    }
    assert digests == PINNED_SHA256


# SHA-256 of a logistic-engine sweep over every 20th reduced-grid scenario
# (20 scenarios, all four designs, 2 replicates, base seed 0, one worker).
PINNED_LOGISTIC_SHA256 = {
    "sweep_replicates.csv": "63cd59f214421696454b8f0fd7625968ad466484a668cecec4725d4a7b6f1aa2",
    "sweep_aggregate.csv": "09fd015f39732e8f1362d4bc2ec6fcee860ea45523e786e8ff2efa185b025edd",
}


def every_20th_reduced_scenario(tmp_path) -> Path:
    """A scenario CSV of every 20th reduced-grid scenario (20 scenarios)."""
    grid = tmp_path / "grid.csv"
    grid.write_text("r0,r1,s0,s1\n" + "".join(
        f"{r0!r},{r1!r},{s0!r},{s1!r}\n" for r0, r1, s0, s1 in reduced_scenario_grid()[::20].tolist()
    ))
    return grid


def test_logistic_sweep_outputs_are_pinned(tmp_path, capsys):
    grid = every_20th_reduced_scenario(tmp_path)
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--grid", str(grid), "--designs", "all", "--replicates", "2",
                   "--base-seed", "0", "--engine", "mcmc", "--threads", "1",
                   "--out-dir", str(out_dir)) == 0
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in PINNED_LOGISTIC_SHA256
    }
    assert digests == PINNED_LOGISTIC_SHA256


# SHA-256 of the `simulate` outputs (patients.csv, allocations.csv and
# stdout) in one scenario at seed 7, per engine and (m, c), and per engine
# with a [utilities] override. They depend on numpy's multinomial and
# permutation samplers, so a numpy release that changes either moves them.
SIMULATE_ARGS = ("--r0", "0.5", "--r1", "0.45", "--s0", "0.05", "--s1", "0.95", "--seed", "7")
SIMULATE_UTILITIES = "[utilities]\nuninfected_a1_1 = 0.8\ndied_a1_0_a2_0 = 0.1\nsurvived_a1_1_a2_1 = 0.7\n"
PINNED_SIMULATE_SHA256 = {
    "conjugate-m0-c0": (
        "6411364a511ce266c306f70aaf0027285439afed165ce25fcce0714c538f7e8e",
        "0d4b41d3728a9d84323bf14820514545003422b95a0f2c559eaa551dd624398a",
        "c404bdc35faec94edc7905a1a6a977a03bfa8878877e72f2ad3572449bd25132",
    ),
    "conjugate-m0-c1": (
        "645ea725d8b17e831e5222e65398ba440c5d4f52f3d05137f6c05e19cf97362d",
        "bb2a9b9d8f6b6b59597f1a2feb3edf75091dce1d11f18f224c2995a28a4ff021",
        "31526b1de4d1d29df441812d2026e810abf5213a19c0fffad618d8a1058c598a",
    ),
    "conjugate-m1-c0": (
        "6411364a511ce266c306f70aaf0027285439afed165ce25fcce0714c538f7e8e",
        "3dc611d3fc4c1219455960cd77b1e2aea28f5e9e6292e6165dbc6d12c55e154b",
        "c404bdc35faec94edc7905a1a6a977a03bfa8878877e72f2ad3572449bd25132",
    ),
    "conjugate-m1-c1": (
        "b96ca51667b655ff4133c418267b472f9dde54a88537d73b7deccf1c9a0abd39",
        "29308bf3c6fc240baf580c61c1c2f4e4f02a29893fa5c5dbe07745e0adc84027",
        "8038a50370fc40d20a2170af6db194303d2c5c331bbc270081f55e1f7c4e84a1",
    ),
    "mcmc-m0-c0": (
        "6411364a511ce266c306f70aaf0027285439afed165ce25fcce0714c538f7e8e",
        "0d4b41d3728a9d84323bf14820514545003422b95a0f2c559eaa551dd624398a",
        "c404bdc35faec94edc7905a1a6a977a03bfa8878877e72f2ad3572449bd25132",
    ),
    "mcmc-m0-c1": (
        "3cb0102881749443249c02ad28b79cb93837333c10daaa0d0a0a666a4e58dd3d",
        "e237c858be279794edaff2f386c38749cd2f1fb611f9dda4f7599db608f231ad",
        "6f85ec2373fcb32c66fb245916159daec9785a9eb627aa9d67171fc69ee92de2",
    ),
    "mcmc-m1-c0": (
        "6411364a511ce266c306f70aaf0027285439afed165ce25fcce0714c538f7e8e",
        "3dc611d3fc4c1219455960cd77b1e2aea28f5e9e6292e6165dbc6d12c55e154b",
        "c404bdc35faec94edc7905a1a6a977a03bfa8878877e72f2ad3572449bd25132",
    ),
    "mcmc-m1-c1": (
        "b96ca51667b655ff4133c418267b472f9dde54a88537d73b7deccf1c9a0abd39",
        "01ffa44af49639f7759ba3af194461f77280dd11243b8a6a9958b52a739d7544",
        "8038a50370fc40d20a2170af6db194303d2c5c331bbc270081f55e1f7c4e84a1",
    ),
    "conjugate-utilities": (
        "180c70339afa699ae35e912283f13dc2bbf8ad27a98273339efac01ad5eab954",
        "9b024556cb0aa0ebec4dbdca5b6e31bacfd915909d9ac6f83464fb05ea822779",
        "efbc3d6ad22f5cd1a764075305ec7a3a726fe6bae8b809d4629d1aecb4af9c58",
    ),
    "mcmc-utilities": (
        "29eac74e5becc281889ddaaeffb0976c66fa611222c02026282804feb048caa4",
        "1ac91d1fabf617c460cd9d4aa792b16ed7c5a729fe94a381ed114b44df123f2e",
        "efbc3d6ad22f5cd1a764075305ec7a3a726fe6bae8b809d4629d1aecb4af9c58",
    ),
}


@pytest.mark.parametrize("case", list(PINNED_SIMULATE_SHA256))
def test_simulate_outputs_are_pinned(tmp_path, capsys, case):
    engine, design = case.split("-", 1)
    m, c = ("0", "1") if design == "utilities" else (design[1], design[4])
    argv = ["simulate", *SIMULATE_ARGS, "--engine", engine, "--m", m, "--c", c]
    if design == "utilities":
        config = tmp_path / "utilities.ini"
        config.write_text(SIMULATE_UTILITIES)
        argv += ["--config", str(config)]
    out_dir = tmp_path / "sim"
    assert run_cli(*argv, "--out", str(out_dir)) == 0
    outputs = [(out_dir / name).read_bytes() for name in ("patients.csv", "allocations.csv")]
    outputs.append(capsys.readouterr().out.encode())
    assert tuple(hashlib.sha256(data).hexdigest() for data in outputs) == PINNED_SIMULATE_SHA256[case]


# SHA-256 of conjugate sweeps over every 20th reduced-grid scenario (2
# replicates, base seed 0, one worker) under a [utilities] override: the
# dynamic designs with the simulate table, which a myopic design cannot
# pool, and all four designs with only the uninfected prophylaxis row
# changed.
PINNED_SWEEP_UTILITIES_SHA256 = {
    "m0c0,m0c1": (
        "87151fe90981c1a4fd3c550bf11813933ae73c4c4e3e095e381d85c31b6589ff",
        "aeb4361e480a977edf80ef9cd7f2745f2b74d2214681c032be50dd9c84a326b3",
    ),
    "all": (
        "5354f5eb75345c2ecc94439e5fdba7f8178369decabbe610eb60450053dde330",
        "2f443a47c56fba4c0637e0e5dc48e3eafe29d85d1397471110f872333b361f71",
    ),
}
SWEEP_UTILITIES = {"m0c0,m0c1": SIMULATE_UTILITIES, "all": "[utilities]\nuninfected_a1_1 = 0.8\n"}


@pytest.mark.parametrize("designs", list(PINNED_SWEEP_UTILITIES_SHA256))
def test_sweep_outputs_under_a_utility_override_are_pinned(tmp_path, capsys, designs):
    config = tmp_path / "utilities.ini"
    config.write_text(SWEEP_UTILITIES[designs])
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--grid", str(every_20th_reduced_scenario(tmp_path)),
                   "--designs", designs, "--replicates", "2", "--base-seed", "0",
                   "--threads", "1", "--config", str(config), "--out-dir", str(out_dir)) == 0
    digests = tuple(
        hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("sweep_replicates.csv", "sweep_aggregate.csv")
    )
    assert digests == PINNED_SWEEP_UTILITIES_SHA256[designs]


def load_script(path: Path):
    """The script at ``path``, imported as a module."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_reduced_sweep_script_matches_report(tmp_path, capsys):
    script = load_script(REDUCED_SWEEP_SCRIPT)
    out_dir = tmp_path / "script"
    assert script.main(["--out-dir", str(out_dir), "--replicates", "1", "--threads", "1"]) == 0
    for m in (0, 1):
        report_dir = tmp_path / f"report_m{m}"
        assert run_cli("report", "--in", str(out_dir / "sweep_aggregate.csv"), "--m", str(m),
                       "--format", "long-csv", "--out-dir", str(report_dir)) == 0
        name = f"rel_u_m{m}_long.csv"
        assert (out_dir / name).read_bytes() == (report_dir / name).read_bytes()
    manifest = (out_dir / "manifest.txt").read_text()
    for name in ("sweep_replicates.csv", "sweep_aggregate.csv"):
        digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        assert f"\n{name} = sha256:{digest}\n" in manifest


def test_full_sweep_script_checks_the_pinned_digests(tmp_path, capsys, monkeypatch):
    """At base seed 0 with 10 replicates the script exits 1 and names each
    sweep CSV whose sha256 differs from ``PINNED_DIGESTS``; at any other
    seed or replicate count it only prints them. The full-grid sweep is
    stood in for by one that writes each CSV's name as its content."""
    script = load_script(FULL_SWEEP_SCRIPT)
    pinned = script.PINNED_DIGESTS
    assert list(pinned) == ["sweep_replicates.csv", "sweep_aggregate.csv"]

    def fake_cli_main(argv):
        if argv[0] == "sweep":
            out_dir = Path(argv[argv.index("--out-dir") + 1])
            out_dir.mkdir(parents=True, exist_ok=True)
            for name in pinned:
                (out_dir / name).write_text(name)
        return 0

    monkeypatch.setattr(script, "cli_main", fake_cli_main)
    written = {name: hashlib.sha256(name.encode()).hexdigest() for name in pinned}
    out_dir = tmp_path / "full"
    cases = [
        ([], pinned, ["sweep_replicates.csv", "sweep_aggregate.csv"]),
        ([], written | {"sweep_aggregate.csv": pinned["sweep_aggregate.csv"]}, ["sweep_aggregate.csv"]),
        ([], written, []),
        (["--base-seed", "1"], pinned, []),
        (["--replicates", "2"], pinned, []),
    ]
    for extra, digests, differ in cases:
        monkeypatch.setattr(script, "PINNED_DIGESTS", digests)
        assert script.main(["--out-dir", str(out_dir), *extra]) == (1 if differ else 0)
        out, err = capsys.readouterr()
        for name in pinned:
            assert f"{name} sha256:{written[name]}" in out
            assert (str(out_dir / name) in err) == (name in differ)
        assert ("reports finished" in out) == (not differ)


def test_one_sweep_call_checks_its_inputs_once(tmp_path, capsys):
    """A ``sweep`` call checks its cells and its pooling once, where its
    ``SweepConfig`` is made; each block it runs takes them as checked."""
    grid = every_20th_reduced_scenario(tmp_path)
    counts = {check_cells.__code__: 0, TrialSettings.check_pooling.__code__: 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        code = run_cli("sweep", "--grid", str(grid), "--designs", "all", "--replicates", "10",
                       "--threads", "1", "--out-dir", str(tmp_path / "sweep"))
    finally:
        sys.setprofile(None)
    assert code == 0
    # 20 scenarios run as two blocks
    assert list(counts.values()) == [1, 1]


def hand_built_result(cells, designs, replicates: int) -> SweepResult:
    """A ``SweepResult`` over ``cells`` x ``designs`` x ``replicates`` whose
    utilities are random draws rather than trials."""
    utility = np.random.default_rng(0).random((len(cells), len(designs), replicates))
    config = SweepConfig(cells=np.array(cells), designs=tuple(designs), replicates=replicates)
    return SweepResult(config, utility, utility.mean(axis=2), utility.std(axis=2, ddof=1), workers=1)


def test_sweep_csv_lines(tmp_path):
    """One replicate line per (scenario, design, replicate) and one aggregate
    line per (scenario, design), in that order, every real as ``.17g``."""
    cells = [(0.5, 0.45, 0.05, 0.95), (0.1, 1 / 3, 0.45, 0.5)]
    designs = [DesignConfig(myopic_m=0, adapt_c=0.5), DesignConfig(myopic_m=1, adapt_c=1.0)]
    result = hand_built_result(cells, designs, 3)
    paths = write_sweep_csvs(tmp_path, result)
    assert list(paths) == [tmp_path / "sweep_replicates.csv", tmp_path / "sweep_aggregate.csv"]
    replicates, aggregate = ["r0,r1,s0,s1,m,c,replicate,u_bar"], ["r0,r1,s0,s1,m,c,u_bar_bar,std_err"]
    for s, cell in enumerate(cells):
        for d, design in enumerate(["0,0.5", "1,1"]):
            prefix = ",".join(format(x, ".17g") for x in cell) + "," + design
            replicates += [f"{prefix},{r},{format(result.utility[s, d, r], '.17g')}" for r in range(3)]
            aggregate.append(
                f"{prefix},{format(result.u_bar_bar[s, d], '.17g')},{format(result.std_err[s, d], '.17g')}"
            )
    for path, lines in zip(paths, (replicates, aggregate)):
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        # the writer's digest is that of the bytes on disk
        assert paths[path] == hashlib.sha256(path.read_bytes()).hexdigest()


def reference_sweep_csvs(result: SweepResult) -> tuple[bytes, bytes]:
    """The bytes of both sweep CSVs as a line-by-line f-string writer
    makes them: the reference for ``write_sweep_csvs``."""
    designs = [f"{d.myopic_m},{d.adapt_c:.17g}" for d in result.config.designs]
    replicates, aggregate = ["r0,r1,s0,s1,m,c,replicate,u_bar\n"], [AGGREGATE_HEADER + "\n"]
    for cell, u_bars, u, se in zip(result.config.cells, result.utility, result.u_bar_bar, result.std_err):
        r0, r1, s0, s1 = cell.tolist()
        prefixes = [f"{r0:.17g},{r1:.17g},{s0:.17g},{s1:.17g},{design}" for design in designs]
        for p, row in zip(prefixes, u_bars.tolist()):
            replicates.extend(f"{p},{rep},{x:.17g}\n" for rep, x in enumerate(row))
        aggregate.extend(f"{p},{a:.17g},{b:.17g}\n" for p, a, b in zip(prefixes, u.tolist(), se.tolist()))
    return "".join(replicates).encode(), "".join(aggregate).encode()


def test_sweep_csvs_match_the_line_by_line_writer(tmp_path):
    """The template writer gives the reference writer's bytes: on one
    replicate with c = 0.5, values 0, 1, 1/3 and the smallest subnormal
    and a zero std_err; and on random utilities over several replicates."""
    cells = np.array([(0.5, 0.45, 0.05, 0.95), (0.1, 1 / 3, 0.45, 0.5)])
    designs = (DesignConfig(myopic_m=0, adapt_c=0.5), DesignConfig(myopic_m=1, adapt_c=0.5))
    utility = np.array([0.0, 1.0, 1 / 3, 5e-324]).reshape(2, 2, 1)
    config = SweepConfig(cells=cells, designs=designs, replicates=1)
    one = SweepResult(config, utility, utility[:, :, 0], np.zeros((2, 2)), workers=1)
    for result in (one, hand_built_result(scenario_grid()[::997], CANONICAL_DESIGNS, 10)):
        paths = write_sweep_csvs(tmp_path, result)
        expected = reference_sweep_csvs(result)
        assert [path.read_bytes() for path in paths] == list(expected)
        assert list(paths.values()) == [hashlib.sha256(data).hexdigest() for data in expected]


def test_sweep_csvs_hold_one_scenario_at_a_time(tmp_path):
    """The writer's memory does not grow with the number of scenarios."""
    result = hand_built_result(scenario_grid()[:2000], CANONICAL_DESIGNS, 10)
    paths = write_sweep_csvs(tmp_path, result)  # first-call allocations are not the writer's
    one_scenario = sum(path.stat().st_size for path in paths) / 2000
    tracemalloc.start()
    try:
        write_sweep_csvs(tmp_path, result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # At most one scenario's text is held at a time: its lines as a list of
    # str (each line plus a str header and a list slot, under twice its
    # text), their join and its encoded bytes, so under 4x one scenario's
    # text. Each of the two files adds a binary buffer and the text layer's
    # pending chunk, io.DEFAULT_BUFFER_SIZE each. Twice that leaves room for
    # small objects (about 100 KB here). A writer that held every
    # scenario's lines at once would need 2,000 scenarios' text, and one
    # that held only every scenario's four cell values as Python floats
    # (about 180 bytes a scenario) would need 360 KB.
    assert peak < 2 * (4 * one_scenario + 4 * io.DEFAULT_BUFFER_SIZE)


# The functions that bench/tracing.py wraps in the cli module's namespace,
# where cmd_simulate and cmd_sweep look them up.
BENCHMARK_PATCH_POINTS = ("main", "cmd_simulate", "run_trial", "run_sweep", "write_sweep_csvs", "write_manifest")


def test_benchmark_patch_points_stay_in_the_cli_namespace(tmp_path, capsys, monkeypatch):
    import smartrar.cli

    for name in BENCHMARK_PATCH_POINTS:
        assert callable(getattr(smartrar.cli, name)), name
    calls = []
    real_run_trial = smartrar.cli.run_trial

    def counted_run_trial(*args, **kwargs):
        calls.append(args)
        return real_run_trial(*args, **kwargs)

    commands = []
    real_cmd_simulate = smartrar.cli.cmd_simulate

    def counted_cmd_simulate(args):
        commands.append(args)
        return real_cmd_simulate(args)

    # A call before patching, so that a parser kept between calls is built
    # with the real command function.
    assert run_cli("simulate") == 0
    monkeypatch.setattr(smartrar.cli, "run_trial", counted_run_trial)
    monkeypatch.setattr(smartrar.cli, "cmd_simulate", counted_cmd_simulate)
    for i, out in enumerate([None, tmp_path / "sim"]):
        argv = ["simulate", "--r0", "0.5", "--seed", "4"] + ([] if out is None else ["--out", str(out)])
        assert run_cli(*argv) == 0
        assert len(calls) == len(commands) == i + 1


def test_benchmark_allocation_patch_point_stays_in_the_simulator_namespace(capsys, monkeypatch):
    # bench/tracing.py wraps allocation_probs where _policy_step looks it up.
    import smartrar.simulator

    calls = []
    real_allocation_probs = smartrar.simulator.allocation_probs

    def counted_allocation_probs(*args, **kwargs):
        calls.append(args)
        return real_allocation_probs(*args, **kwargs)

    monkeypatch.setattr(smartrar.simulator, "allocation_probs", counted_allocation_probs)
    assert run_cli("simulate", "--r0", "0.5", "--c", "1", "--seed", "4") == 0
    # One call, on the stacked pairs of both stages, at each of the three
    # adapting analyses of four.
    assert len(calls) == 3
