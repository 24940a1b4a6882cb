#!/usr/bin/env python3
"""Quick qualitative check on the reduced grid (400 scenarios, seconds of work).

Runs the four canonical designs, writes the sweep CSVs plus long-format
relative utilities for both myopic flags, and prints a short summary of
where adaptive randomisation helps and where the myopic variant hurts.
"""

import argparse
import sys
from pathlib import Path

from smartrar import (
    SweepConfig,
    reduced_scenario_grid,
    run_sweep,
    canonical_designs,
)
from smartrar.cli import write_relative_csv, write_sweep_csvs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reduced_sweep_output")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--replicates", type=int, default=10)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    result = run_sweep(
        SweepConfig(
            scenarios=tuple(reduced_scenario_grid()),
            designs=canonical_designs(),
            replicates=args.replicates,
            base_seed=args.base_seed,
            parallelism=args.threads,
        )
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sweep_csvs(out_dir, result)

    for m, rel_u in result.relative.items():
        write_relative_csv(out_dir / f"rel_u_m{m}_long.csv", result.config.cells, rel_u, m)
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
