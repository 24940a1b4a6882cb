"""Tests of the benchmark itself: inputs, output checks, invariance, smoke.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, WORKLOADS, Size  # noqa: E402

TINY = Size(sweep_scenarios=6, sweep_chunk=3, trial_inputs=4)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_inputs_are_a_pure_function_of_the_seed(tmp_path):
    assert workloads.sweep_inputs(7, TINY) == workloads.sweep_inputs(7, TINY)
    assert workloads.sweep_inputs(7, TINY) != workloads.sweep_inputs(8, TINY)
    assert workloads.trial_inputs(7, TINY) == workloads.trial_inputs(7, TINY)
    assert workloads.trial_inputs(7, TINY) != workloads.trial_inputs(8, TINY)
    for k in (1, 2):
        workloads.setup("sweep_serial", 7, tmp_path / str(k), TINY)
    files = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in files:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_serial_and_parallel_sweeps_write_identical_csvs(tmp_path):
    program = workloads.import_program()
    written = {}
    for threads in (1, 2):
        (tmp_path / str(threads)).mkdir()
        call = workloads.sweep_workload(program, 11, tmp_path / str(threads), TINY, threads).calls[0]
        result = call.run()
        assert call.check(result) == []
        written[threads] = [
            (call.out_dir / f).read_bytes() for f in ("sweep_replicates.csv", "sweep_aggregate.csv")
        ]
    assert written[1] == written[2]


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0]] + [edit(line) for line in lines[1:]]) + "\n")


def test_sweep_checks_reject_wrong_outputs(tmp_path):
    call = workloads.setup("sweep_serial", 3, tmp_path, TINY).calls[0]
    result = call.run()
    assert call.check(result) == []
    replicates = call.out_dir / "sweep_replicates.csv"
    original = replicates.read_text()

    def bias_fixed_design(line: str) -> str:
        fields = line.split(",")
        if float(fields[5]) == 0.0:
            fields[7] = repr(max(0.0, float(fields[7]) - 0.02))
        return ",".join(fields)

    _rewrite(replicates, bias_fixed_design)
    assert any("c = 0" in p for p in call.check(result))
    replicates.write_text(original + "\n")  # same rows, different bytes
    assert any("manifest digest" in p for p in call.check(result))
    replicates.write_text(original)

    def out_of_range(line: str) -> str:
        fields = line.split(",")
        return ",".join(fields[:6] + ["1.5"] + fields[7:])

    _rewrite(call.out_dir / "sweep_aggregate.csv", out_of_range)
    assert any("range" in p for p in call.check(result))
    assert call.check((1, "")) == ["sweep exited 1"]


def test_simulate_check_compares_stdout_with_the_utility_column(tmp_path):
    call = workloads.setup("mcmc_records", 3, tmp_path, TINY).calls[0]
    rc, stdout = call.run()
    assert call.check((rc, stdout)) == []
    u_bar = float(stdout.strip().split("=")[1])
    assert call.check((rc, f"u_bar={u_bar + 1e-6!r}\n")) != []
    (call.out_dir / "patients.csv").unlink()
    assert call.check((rc, stdout)) != []


def _assert_metrics(result: dict, kind: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_runs_at_a_tiny_size(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path)
    result = run.run(workload, 5, 0.2, bool(trace), size=TINY)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    _assert_metrics(result, "per_layer" if trace else "end_to_end")
    if trace:
        assert result["metrics"]["simulator.run_trial.calls"]["value"] == 1.0
        assert (tmp_path / workload / "spans.csv").stat().st_size > 0
    else:
        for metric in result["metrics"].values():
            assert metric["value"] > 0.0


def test_command_prints_every_metric_with_its_unit():
    argv = ["--workload", "mcmc_records", "--seed", "2", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    *_, facts_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    _assert_metrics(result, "end_to_end")
    machine = json.loads(facts_line)["machine"]
    assert machine["affinity_count"] == len(machine["affinity"]) >= 1
    assert machine["cpu_rotation"] == machine["affinity"]
    assert sum(machine["calls_per_cpu"].values()) == result["attempted"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "sweep_serial", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
