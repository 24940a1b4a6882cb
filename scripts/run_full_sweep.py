#!/usr/bin/env python3
"""Run the complete 28224-scenario x 4-design x 10-replicate sweep and emit
both relative-utility matrix bundles.

Uses the conjugate engine and every CPU by default. Prints the sweep's
seconds, trials/s and peak RSS, then the sha256 of both sweep CSVs. At
base seed 0 with 10 replicates, any thread count, these must equal
PINNED_DIGESTS (they depend on numpy's multinomial sampler); the script
exits 1 and names each CSV whose digest differs. Measured on a shared 2-vCPU
VM, the sweep took 9.5-14.0 s with --threads 1 and 7.3-8.2 s with both
CPUs; peak RSS of this process 70-73 MB (the sweep's arrays, with each
scenario's CSV lines formatted as they are written).

Outputs land in --out-dir:

    sweep_replicates.csv   per-trial mean utilities
    sweep_aggregate.csv    per-(scenario, design) mean and standard error
    manifest.txt           config snapshot and output digests
    report_m0/, report_m1/ 64 labelled 21x21 matrix CSVs per myopic flag
"""

import argparse
import hashlib
import resource
import sys
import time
from pathlib import Path

from smartrar.cli import main as cli_main
from smartrar.core import CANONICAL_DESIGNS, scenario_grid

#: sha256 of each sweep CSV at base seed 0 with 10 replicates.
PINNED_DIGESTS = {
    "sweep_replicates.csv": "1ca16cd24bb4932ae791d92e7357e703aa2cf8f74a7314cd7e508e76b52726a4",
    "sweep_aggregate.csv": "71b726998649444e41702449938e83c75536790a7af183ec93b824baa33c6256",
}


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (``ru_maxrss`` is in
    KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sha256_of(path: Path) -> str:
    """Hex sha256 of the file at ``path``, read in 1 MiB pieces."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for piece in iter(lambda: f.read(1 << 20), b""):
            digest.update(piece)
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="full_sweep_output")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--replicates", type=int, default=10)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

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
    seconds = time.perf_counter() - t0
    trials = len(scenario_grid()) * len(CANONICAL_DESIGNS) * args.replicates
    print(
        f"sweep finished in {seconds:.1f} s ({trials / seconds:,.0f} trials/s), "
        f"peak RSS {peak_rss_mb():.0f} MB"
    )
    digests = {name: sha256_of(out_dir / name) for name in PINNED_DIGESTS}
    for name, digest in digests.items():
        print(f"{name} sha256:{digest}")
    if args.base_seed == 0 and args.replicates == 10:
        differ = [name for name, digest in digests.items() if digest != PINNED_DIGESTS[name]]
        for name in differ:
            print(f"error: sha256 of {out_dir / name} differs from the pinned {PINNED_DIGESTS[name]}", file=sys.stderr)
        if differ:
            return 1

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
