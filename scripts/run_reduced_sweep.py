#!/usr/bin/env python3
"""Quick qualitative check on the reduced grid (400 scenarios, seconds of work).

Runs the four canonical designs through ``smartrar sweep``, writes
long-format relative utilities for both myopic flags with ``smartrar
report`` into the same directory, and prints a short summary of where
adaptive randomisation helps and where the myopic variant hurts. Outputs
land in --out-dir:

    sweep_replicates.csv, sweep_aggregate.csv   the sweep CSVs
    manifest.txt                                config snapshot and their digests
    rel_u_m0_long.csv, rel_u_m1_long.csv        relative utility per scenario
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from smartrar.cli import main as cli_main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reduced_sweep_output")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--replicates", type=int, default=10)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    sweep_args = [
        "sweep",
        "--grid", "reduced",
        "--designs", "all",
        "--replicates", str(args.replicates),
        "--base-seed", str(args.base_seed),
        "--out-dir", str(out_dir),
    ]
    if args.threads is not None:
        sweep_args += ["--threads", str(args.threads)]
    code = cli_main(sweep_args)
    if code != 0:
        return code

    for m in (0, 1):
        code = cli_main([
            "report",
            "--in", str(out_dir / "sweep_aggregate.csv"),
            "--m", str(m),
            "--format", "long-csv",
            "--out-dir", str(out_dir),
        ])
        if code != 0:
            return code
        rel_u = np.loadtxt(out_dir / f"rel_u_m{m}_long.csv", delimiter=",", skiprows=1, usecols=5, ndmin=1)
        label = "dynamic" if m == 0 else "myopic"
        print(
            f"{label} adaptation: min rel = {rel_u.min():.4f}, "
            f"max rel = {rel_u.max():.4f}, "
            f"scenarios below 0.99: {(rel_u < 0.99).sum()}, "
            f"above 1.01: {(rel_u > 1.01).sum()}"
        )
    print(f"wrote CSVs to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
