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
from smartrar.cli import write_sweep_csvs, fmt_real


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reduced_sweep_output")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--replicates", type=int, default=10)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args()

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

    for m in (0, 1):
        rows = [r for r in result.relative if r.myopic_m == m]
        lines = ["r0,r1,s0,s1,m,rel_u"]
        lines.extend(
            f"{fmt_real(r.scenario.r0)},{fmt_real(r.scenario.r1)},"
            f"{fmt_real(r.scenario.s0)},{fmt_real(r.scenario.s1)},{m},{fmt_real(r.rel_u)}"
            for r in rows
        )
        (out_dir / f"rel_u_m{m}_long.csv").write_text("\n".join(lines) + "\n", newline="\n")

        values = [r.rel_u for r in rows]
        label = "dynamic" if m == 0 else "myopic"
        print(
            f"{label} adaptation: min rel = {min(values):.4f}, "
            f"max rel = {max(values):.4f}, "
            f"scenarios below 0.99: {sum(v < 0.99 for v in values)}, "
            f"above 1.01: {sum(v > 1.01 for v in values)}"
        )
    print(f"wrote CSVs to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
