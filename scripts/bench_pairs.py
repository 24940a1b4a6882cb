#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload by alternating pairs of runs.

Each pair runs ``python3 <checkout>/bench/run.py --workload W --seed S
--seconds T --trace 0`` once in the parent checkout and once in the change
checkout, one after the other, at the same seed; the side that runs first
alternates from pair to pair, and pair i uses seed ``--seed + i``. The last
JSON line a run prints is its result. For every end-to-end metric the script
prints the median [Q1-Q3] of each side, the change in the medians and the
number of pairs the change wins; whether higher or lower wins comes from
``better`` in ``BENCHMARK.json`` of the change checkout. It exits 1 if any
run fails, reports a failed call or prints no result, and 0 otherwise.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload sweep_serial --pairs 6 --seconds 60 --seed 1000

It only reads the checkouts' ``bench/`` and ``BENCHMARK.json`` (``bench/run.py``
writes its working files under each checkout's ``.bench_work/``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def last_result(stdout: str) -> dict | None:
    """The last line of ``stdout`` that parses as a JSON object holding
    ``metrics``, or None."""
    for line in reversed(stdout.splitlines()):
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "metrics" in record:
            return record
    return None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One untraced benchmark run in ``checkout``; its result, or None if
    the run exited non-zero or printed none."""
    argv = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]  # fmt: skip
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return last_result(done.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of ``values``, inclusive of the extremes."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(pairs: list[dict[str, dict]], better: dict[str, str]) -> list[str]:
    """One line per metric in ``better`` (name -> "higher" or "lower") over
    the ``pairs`` of results ({"parent": result, "change": result})."""
    lines = []
    for name, direction in better.items():
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
        (p1, pm, p3), (c1, cm, c3) = quartiles(values["parent"]), quartiles(values["change"])
        delta = f"{cm / pm - 1.0:+.1%}" if pm else "n/a"
        lines.append(
            f"{name:<22} parent {pm:.6g} [{p1:.6g}-{p3:.6g}]  change {cm:.6g} [{c1:.6g}-{c3:.6g}]"
            f"  {delta}  wins {wins}/{len(pairs)} ({direction} is better)"
        )
    return lines


def main(argv: list[str] | None = None, runner=run_once) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs, failed = [], False
    for i in range(args.pairs):
        seed, pair = args.seed + i, {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = runner(checkouts[side], args.workload, seed, args.seconds)
            if result is None or result.get("failed", 0) or not result.get("correct", True):
                print(f"pair {i + 1} (seed {seed}): the {side} run failed: {result}", file=sys.stderr)
                failed = True
            pair[side] = result
        if all(pair.values()):
            pairs.append(pair)
            rates = " ".join(f"{side} {pair[side]['metrics']['trials_per_s']['value']:.6g}" for side in SIDES)
            print(f"pair {i + 1} (seed {seed}): trials_per_s {rates}", flush=True)
    if pairs:
        print(f"{args.workload}: {len(pairs)} pairs of {args.seconds:g} s, median [Q1-Q3]")
        print("\n".join(summarise(pairs, better)))
    return 1 if failed or not pairs else 0


if __name__ == "__main__":
    sys.exit(main())
