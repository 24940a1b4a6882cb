"""scripts/bench_pairs.py on canned benchmark output, without running it."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(SCRIPT.stem, SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(rate: float, rss: float, failed: int = 0) -> str:
    metrics = {"trials_per_s": {"value": rate, "unit": "1/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics})


def test_last_result_line_is_read(bench_pairs):
    stdout = "\n".join(['{"machine": {}, "problems": []}', result_line(1.0, 2.0), "trailing text"])
    assert bench_pairs.last_result(stdout)["metrics"]["trials_per_s"]["value"] == 1.0
    assert bench_pairs.last_result("no json here\n") is None


def test_quartiles(bench_pairs):
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def checkouts(tmp_path) -> tuple[Path, Path]:
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    better = [{"name": "trials_per_s", "better": "higher"}, {"name": "peak_rss_mb", "better": "lower"}]
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": better}))
    return parent, change


def test_pairs_alternate_and_wins_follow_the_direction(bench_pairs, tmp_path, capsys):
    parent, change = checkouts(tmp_path)
    # The change is faster in pairs 1 and 3 and never lighter.
    canned = {
        ("parent", 100): (100.0, 40.0), ("change", 100): (110.0, 41.0),
        ("parent", 101): (100.0, 40.0), ("change", 101): (90.0, 41.0),
        ("parent", 102): (100.0, 40.0), ("change", 102): (120.0, 40.0),
    }  # fmt: skip
    order = []

    def runner(checkout, workload, seed, seconds):
        side = checkout.name
        order.append((side, seed))
        assert workload == "sweep_serial" and seconds == 5.0
        return bench_pairs.last_result(result_line(*canned[side, seed]))

    argv = ["--parent", str(parent), "--change", str(change), "--workload", "sweep_serial",
            "--pairs", "3", "--seconds", "5", "--seed", "100"]  # fmt: skip
    assert bench_pairs.main(argv, runner=runner) == 0
    assert order == [("parent", 100), ("change", 100), ("change", 101), ("parent", 101),
                     ("parent", 102), ("change", 102)]  # fmt: skip
    out = capsys.readouterr().out
    rate_line = next(line for line in out.splitlines() if line.startswith("trials_per_s "))
    assert "change 110 [100-115]" in rate_line and "+10.0%" in rate_line and "wins 2/3" in rate_line
    rss_line = next(line for line in out.splitlines() if line.startswith("peak_rss_mb "))
    assert "wins 0/3" in rss_line and "(lower is better)" in rss_line


def test_a_failed_call_exits_1(bench_pairs, tmp_path, capsys):
    parent, change = checkouts(tmp_path)

    def runner(checkout, workload, seed, seconds):
        failed = int(checkout.name == "change" and seed == 1)
        return bench_pairs.last_result(result_line(100.0, 40.0, failed))

    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w", "--pairs", "2", "--seed", "0"]
    assert bench_pairs.main(argv, runner=runner) == 1
    assert "pair 2 (seed 1): the change run failed" in capsys.readouterr().err
    # a run that prints no result fails too
    assert bench_pairs.main(argv, runner=lambda *args: None) == 1
