"""Scenario-grid sweeps over trial designs, with deterministic parallelism.

Every (scenario, design, replicate) triple maps to a trial seed through a
pure function of the base seed and the three indices, so results are
identical whatever the degree of parallelism or execution order. Work is
partitioned by scenario; each work item is independent and owns its RNG
substreams; aggregation is a deterministic reduction into index order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .core import (
    DesignConfig,
    Scenario,
    UtilityTable,
)
from .simulator import run_trial


class SweepError(RuntimeError):
    """A trial inside a sweep failed, or a worker process died; the message
    identifies the triple where one is known."""


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
    warnings: tuple[str, ...] = ()


def trial_seed(base_seed: int, scenario_index: int, design_index: int, replicate: int) -> int:
    """Trial seed as a pure function of the seed lattice coordinates."""
    seq = np.random.SeedSequence((base_seed, scenario_index, design_index, replicate))
    return int(seq.generate_state(1, np.uint64)[0])


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
    """Run all trials for a contiguous block of scenario indices."""
    start, scenarios, designs, replicates, base_seed, utilities = args
    out = np.empty((len(scenarios), len(designs), replicates), dtype=np.float64)
    warnings: list[str] = []
    for offset, scenario in enumerate(scenarios):
        s_idx = start + offset
        for d_idx, design in enumerate(designs):
            for rep in range(replicates):
                seed = trial_seed(base_seed, s_idx, d_idx, rep)
                try:
                    result = run_trial(scenario, replace(design, seed=seed), utilities=utilities)
                except Exception as exc:
                    raise SweepError(
                        f"trial failed for scenario index {s_idx} "
                        f"({scenario}), design (m={design.myopic_m}, c={design.adapt_c}), "
                        f"replicate {rep}: {exc}"
                    ) from exc
                out[offset, d_idx, rep] = result.mean_utility
                warnings.extend(
                    f"scenario {s_idx} design (m={design.myopic_m}, c={design.adapt_c}) "
                    f"replicate {rep}: {w}"
                    for w in result.warnings
                )
    return start, out, warnings


def available_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def check_utilities(designs: Iterable[DesignConfig], utilities: UtilityTable | None) -> None:
    """Raise ``ConfigurationError`` if a myopic design cannot pool the table's
    stage-two utilities, before any trial runs."""
    if utilities is not None and any(d.myopic_m for d in designs):
        utilities.pooled_stage2()


def _partition(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) blocks covering range(n)."""
    block = max(1, math.ceil(n / (workers * 4)))
    return [(i, min(i + block, n)) for i in range(0, n, block)]


def run_sweep(config: SweepConfig, utilities: UtilityTable | None = None) -> SweepResult:
    """Run the sweep and aggregate per-cell mean utilities.

    Per-scenario work items execute concurrently when ``parallelism``
    exceeds one (default: every CPU in the affinity set); the result is
    identical for any parallelism degree. A utility table that a myopic
    design cannot pool raises ``ConfigurationError`` before any trial runs.
    """
    check_utilities(config.designs, utilities)
    n_scenarios = len(config.scenarios)
    n_designs = len(config.designs)
    workers = config.parallelism if config.parallelism is not None else available_cpus()
    blocks = _partition(n_scenarios, workers)
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

    rows: list[SweepRow] = []
    for s_idx, scenario in enumerate(config.scenarios):
        for d_idx, design in enumerate(config.designs):
            u_bars = utility_matrix[s_idx, d_idx]
            std_err = (
                float(np.std(u_bars, ddof=1) / math.sqrt(config.replicates))
                if config.replicates > 1
                else 0.0
            )
            rows.append(
                SweepRow(
                    scenario=scenario,
                    myopic_m=design.myopic_m,
                    adapt_c=design.adapt_c,
                    u_bar_bar=float(np.mean(u_bars)),
                    u_bars=tuple(float(u) for u in u_bars),
                    std_err=std_err,
                )
            )

    relative = relative_utility({(r.scenario, r.myopic_m, r.adapt_c): r.u_bar_bar for r in rows})
    return SweepResult(
        config=config, rows=tuple(rows), relative=relative, warnings=tuple(warnings)
    )


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
