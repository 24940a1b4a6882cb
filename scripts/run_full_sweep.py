#!/usr/bin/env python3
"""Run the complete 28224-scenario x 4-design x 10-replicate sweep and emit
both relative-utility matrix bundles.

Uses the conjugate engine and every CPU by default. Measured on a 2-vCPU
VM, the sweep took 12-15 s with --threads 1 and 10-11 s with both CPUs;
peak RSS of this process about 72 MB with --threads 1 (the sweep's
arrays, with each scenario's CSV lines formatted as they are written).
Outputs land in --out-dir:

    sweep_replicates.csv   per-trial mean utilities
    sweep_aggregate.csv    per-(scenario, design) mean and standard error
    manifest.txt           config snapshot and output digests
    report_m0/, report_m1/ 64 labelled 21x21 matrix CSVs per myopic flag
"""

import argparse
import resource
import sys
import time
from pathlib import Path

from smartrar.cli import main as cli_main


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (``ru_maxrss`` is in
    KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="full_sweep_output")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--replicates", type=int, default=10)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    sweep_args = [
        "sweep",
        "--grid", "full",
        "--designs", "all",
        "--replicates", str(args.replicates),
        "--base-seed", str(args.base_seed),
        "--engine", "conjugate",
        "--out-dir", str(out_dir),
    ]
    if args.threads is not None:
        sweep_args += ["--threads", str(args.threads)]

    t0 = time.perf_counter()
    code = cli_main(sweep_args)
    if code != 0:
        return code
    print(f"sweep finished in {time.perf_counter() - t0:.1f} s, peak RSS {peak_rss_mb():.0f} MB")

    aggregate = out_dir / "sweep_aggregate.csv"
    for m in (0, 1):
        code = cli_main([
            "report",
            "--in", str(aggregate),
            "--m", str(m),
            "--format", "csv-matrix",
            "--out-dir", str(out_dir / f"report_m{m}"),
        ])
        if code != 0:
            return code
    print(f"reports finished, peak RSS {peak_rss_mb():.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
