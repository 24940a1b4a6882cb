"""Scenario-grid sweeps over trial designs, with deterministic parallelism.

Each scenario owns one random stream (``scenario_stream``), so its results
are a pure function of the base seed and its index, identical whatever the
block it runs in, the degree of parallelism or the execution order. Work
items are blocks of consecutive scenarios, each simulated as one batch;
aggregation is a deterministic reduction into index order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .core import (
    DesignConfig,
    Scenario,
    UtilityTable,
)
from .simulator import Stream, block_schedule, run_block

#: Scenarios per work item. It sets the batch size only: every scenario
#: draws from its own stream, so results do not depend on it.
BLOCK_SCENARIOS = 16


class SweepError(RuntimeError):
    """A block of trials inside a sweep failed, or a worker process died;
    the message names the block's scenario indices where they are known."""


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep: scenarios x designs x replicates, plus seeding."""

    scenarios: tuple[Scenario, ...]
    designs: tuple[DesignConfig, ...]
    replicates: int = 10
    base_seed: int = 0
    parallelism: int | None = None

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("scenarios must be non-empty")
        if not self.designs:
            raise ValueError("designs must be non-empty")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        block_schedule(self.designs)


@dataclass(frozen=True)
class SweepRow:
    """Aggregated utilities for one (scenario, design) cell."""

    scenario: Scenario
    myopic_m: int
    adapt_c: float
    u_bar_bar: float
    u_bars: tuple[float, ...]
    std_err: float


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    rows: tuple[SweepRow, ...]
    relative: dict[tuple[Scenario, int], float]  # (scenario, m) -> rel_u
    workers: int
    warnings: tuple[str, ...] = ()


def scenario_stream(
    base_seed: int,
    index: int,
    scenario: Scenario,
    designs: tuple[DesignConfig, ...],
    replicates: int,
    utilities: UtilityTable,
) -> Stream:
    """The trials of scenario ``index``: one Philox generator keyed by
    ``SeedSequence((base_seed, index))`` draws the cohorts of all designs x
    replicates, in (design, replicate) row order. Under the MCMC engine row
    j's engine seed is child j of that sequence."""
    seq = np.random.SeedSequence((base_seed, index))
    mcmc = designs[0].engine == "mcmc"
    engine_seeds = tuple(seq.spawn(len(designs) * replicates)) if mcmc else ()
    rng = np.random.Generator(np.random.Philox(seq))
    return Stream(scenario, designs, replicates, rng, utilities, engine_seeds)


def _run_block(
    args: tuple[
        int,
        tuple[Scenario, ...],
        tuple[DesignConfig, ...],
        int,
        int,
        UtilityTable | None,
    ],
) -> tuple[int, np.ndarray, list[str]]:
    """Run all trials for a contiguous block of scenario indices as one batch."""
    start, scenarios, designs, replicates, base_seed, utilities = args
    table = utilities if utilities is not None else UtilityTable.default()
    streams = [
        scenario_stream(base_seed, start + offset, scenario, designs, replicates, table)
        for offset, scenario in enumerate(scenarios)
    ]
    try:
        block = run_block(streams)
    except Exception as exc:
        raise SweepError(
            f"trial failed in scenario indices {start} to {start + len(scenarios) - 1}: {exc}"
        ) from exc
    shape = (len(scenarios), len(designs), replicates)
    warnings = []
    for row, message in block.warnings:
        offset, d_idx, rep = np.unravel_index(row, shape)
        design = designs[d_idx]
        warnings.append(
            f"scenario {start + offset} design (m={design.myopic_m}, c={design.adapt_c}) "
            f"replicate {rep}: {message}"
        )
    return start, block.mean_utility.reshape(shape), warnings


def available_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def check_utilities(designs: Iterable[DesignConfig], utilities: UtilityTable | None) -> None:
    """Raise ``ConfigurationError`` if a myopic design cannot pool the table's
    stage-two utilities, before any trial runs."""
    if utilities is not None and any(d.myopic_m for d in designs):
        utilities.pooled_stage2()


def run_sweep(config: SweepConfig, utilities: UtilityTable | None = None) -> SweepResult:
    """Run the sweep and aggregate per-cell mean utilities.

    Blocks of scenarios execute concurrently when ``parallelism`` exceeds
    one (default: every CPU in the affinity set); the result is identical
    for any parallelism degree. A utility table that a myopic design
    cannot pool raises ``ConfigurationError`` before any trial runs.
    """
    check_utilities(config.designs, utilities)
    n_scenarios = len(config.scenarios)
    n_designs = len(config.designs)
    workers = config.parallelism if config.parallelism is not None else available_cpus()
    step = BLOCK_SCENARIOS
    blocks = [(start, min(start + step, n_scenarios)) for start in range(0, n_scenarios, step)]
    tasks = [
        (
            start,
            config.scenarios[start:stop],
            config.designs,
            config.replicates,
            config.base_seed,
            utilities,
        )
        for start, stop in blocks
    ]

    utility_matrix = np.empty((n_scenarios, n_designs, config.replicates), dtype=np.float64)
    warnings: list[str] = []
    if workers <= 1 or len(tasks) == 1:
        results: Iterable[tuple[int, np.ndarray, list[str]]] = map(_run_block, tasks)
    else:
        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(executor.map(_run_block, tasks))
        except BrokenProcessPool as exc:
            raise SweepError(f"a sweep worker process died: {exc}") from exc
        finally:
            executor.shutdown()
    for start, block, block_warnings in results:
        utility_matrix[start : start + block.shape[0]] = block
        warnings.extend(block_warnings)

    u_bar_bar = utility_matrix.mean(axis=2)
    std_err = (
        utility_matrix.std(axis=2, ddof=1) / math.sqrt(config.replicates)
        if config.replicates > 1
        else np.zeros_like(u_bar_bar)
    )
    u_bars = utility_matrix.tolist()
    rows = [
        SweepRow(
            scenario=scenario,
            myopic_m=design.myopic_m,
            adapt_c=design.adapt_c,
            u_bar_bar=float(u_bar_bar[s_idx, d_idx]),
            u_bars=tuple(u_bars[s_idx][d_idx]),
            std_err=float(std_err[s_idx, d_idx]),
        )
        for s_idx, scenario in enumerate(config.scenarios)
        for d_idx, design in enumerate(config.designs)
    ]

    relative = relative_utility({(r.scenario, r.myopic_m, r.adapt_c): r.u_bar_bar for r in rows})
    return SweepResult(config, tuple(rows), relative, workers, tuple(warnings))


def relative_utility(
    u_bar_bar: Mapping[tuple[Scenario, int, float], float],
) -> dict[tuple[Scenario, int], float]:
    """Adaptive (c = 1) over fixed (c = 0) mean utility per (scenario, m).

    ``u_bar_bar`` maps (scenario, m, c) to a mean utility. Every (scenario,
    m) with both designs present appears, in input order; a zero
    fixed-design utility gives NaN rather than dropping the pair.
    """
    out: dict[tuple[Scenario, int], float] = {}
    for scenario, m, _ in u_bar_bar:
        fixed = u_bar_bar.get((scenario, m, 0.0))
        adaptive = u_bar_bar.get((scenario, m, 1.0))
        if fixed is not None and adaptive is not None:
            out[scenario, m] = adaptive / fixed if fixed != 0.0 else math.nan
    return out
