"""smartrar benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload sweep_serial --seed 1 --seconds 60 --trace 0

The load is a closed loop from this single process: each call into the
program starts only after the previous one has returned and been checked.
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced calls and prints the
per-layer metrics. The last line of standard output is the result object;
the line before it records the machine the run used. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from workloads import FULL_GRID_TRIALS, ROOT, WORKLOADS, Size  # noqa: E402

WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 5
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.setup(sys.argv[2], int(sys.argv[3]), workloads.Path(sys.argv[4]))"
)


def current_cpu() -> int:
    """CPU this process last ran on (field 39 of /proc/self/stat)."""
    stat = Path("/proc/self/stat").read_text()
    return int(stat.rsplit(")", 1)[1].split()[36])


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_loop(workload, seconds: float, tracer=None, cpus: list[int] | None = None) -> dict:
    """Closed loop over the workload's calls for about ``seconds``.

    A call starts only while the median call so far still fits in the
    time left, so a run ends close to ``seconds``. With a tracer, calls
    alternate untraced and traced, starting untraced, and at least one is
    traced.
    """
    samples = {False: [], True: []}  # traced? -> [(seconds, trials)]
    attempted = failed = 0
    problems: list[str] = []
    cpus_used: Counter[int] = Counter()
    bytes_written: list[int] = []
    durations: list[float] = []

    def do(call, traced: bool) -> float | None:
        nonlocal attempted, failed
        shutil.rmtree(call.out_dir, ignore_errors=True)
        if traced:
            tracer.request += 1
            tracer.install()
        attempted += 1
        t0 = perf_counter()
        try:
            result = call.run()
        except Exception as exc:  # a raised trial is a counted failure
            elapsed, found = perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = perf_counter() - t0
            found = call.check(result)
        finally:
            if traced:
                tracer.uninstall()
        cpus_used[current_cpu()] += 1
        if found:
            failed += 1
            problems.extend(found[:3])
            return None
        if traced:
            bytes_written.append(sum(p.stat().st_size for p in call.out_dir.iterdir()))
        return elapsed

    do(workload.warmup, False)
    start = perf_counter()
    min_calls = 1 if tracer is None else 2  # a traced run makes one traced call
    i = 0
    while i < min_calls or perf_counter() - start + statistics.median(durations) <= seconds:
        call = workload.calls[i % len(workload.calls)]
        traced = tracer is not None and i % 2 == 1
        if cpus:
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        t0 = perf_counter()
        elapsed = do(call, traced)
        durations.append(perf_counter() - t0)
        if elapsed is not None:
            samples[traced].append((elapsed, call.trials))
        i += 1
    return {
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "cpus_used": dict(sorted(cpus_used.items())),
        "bytes_written": bytes_written,
    }


def rate(samples: list[tuple[float, int]]) -> float:
    """Trials completed per second of call time."""
    seconds = sum(s for s, _ in samples)
    return sum(trials for _, trials in samples) / seconds if seconds else 0.0


def end_to_end(loop: dict, setup_times: list[float], rss_kb: int) -> dict:
    samples = loop["samples"][False]
    per_trial_ms = [1e3 * s / trials for s, trials in samples] or [0.0]
    trials_per_s = rate(samples)
    return {
        "trials_per_s": (trials_per_s, "1/s"),
        "full_grid_projected_s": (FULL_GRID_TRIALS / trials_per_s if trials_per_s else 0.0, "s"),
        "trial_ms_p50": (percentile(per_trial_ms, 50), "ms"),
        "trial_ms_p90": (percentile(per_trial_ms, 90), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(loop: dict, tracer) -> dict:
    traced, untraced = loop["samples"][True], loop["samples"][False]
    out = tracer.metrics(sum(trials for _, trials in traced) or 1)
    written = loop["bytes_written"]
    out["cli.bytes_written"] = (statistics.mean(written) if written else 0.0, "bytes")
    traced_rate, untraced_rate = rate(traced), rate(untraced)
    out["trace.trials_per_s_traced"] = (traced_rate, "1/s")
    out["trace.trials_per_s_untraced"] = (untraced_rate, "1/s")
    out["trace.overhead_frac"] = (untraced_rate / traced_rate - 1.0 if traced_rate else 0.0, "fraction")
    out["failed_frac"] = (loop["failed"] / loop["attempted"], "fraction")
    return out


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall time of fresh interpreters that import the program and
    generate the workload's inputs, as this run did before its first call."""
    times = []
    for k in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup_probe_{k}"
        argv = [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), workload, str(seed), str(probe_dir)]
        t0 = perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: Size = Size(),
    cpus: list[int] | None = None,
) -> dict:
    """One measured run; returns the full record (result, machine, details).

    ``cpus`` is the rotation of single CPUs the calls run on, if any."""
    import machine

    affinity = sorted(set(os.sched_getaffinity(0)) | set(cpus or ()))
    workdir = WORK_ROOT / workload_name
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.setup(workload_name, seed, workdir, size)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    loop = run_loop(workload, seconds, tracer, cpus)
    if trace:
        metrics = per_layer(loop, tracer)
        tracer.write(workdir / "spans.csv")
    else:
        rss_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        metrics = end_to_end(loop, measure_setup(workload_name, seed, workdir), rss_kb)
    result = {
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    facts = machine.facts(affinity)
    facts["cpu_rotation"] = cpus
    facts["calls_per_cpu"] = loop["cpus_used"]
    if tracer is not None:
        facts["missing_patch_points"] = tracer.missing
    record = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": facts, "problems": loop["problems"], "result": result,
              "call_seconds": loop["samples"]}  # fmt: skip
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Both workloads are serial. Pinned to one vCPU, or left to the
    # scheduler, a run spends its whole length on whichever vCPU it lands
    # on, and the vCPUs of a shared machine differ in speed from minute to
    # minute. Rotating the single CPU call by call gives every run the same
    # mix of all of them. The first is set before numpy is imported, so its
    # thread pool sizes itself to one CPU.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), cpus=cpus)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"machine": record["machine"], "problems": record["problems"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
