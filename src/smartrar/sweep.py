"""Scenario-grid sweeps over trial designs, with deterministic parallelism.

Each scenario owns one random stream (``scenario_rng``), so its results
are a pure function of the base seed and its index, identical whatever the
block it runs in, the degree of parallelism or the execution order. Work
items are blocks of consecutive scenarios, each simulated as one
``run_block`` batch under the sweep's one ``TrialSettings``; aggregation is
a deterministic reduction into index order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import DesignConfig, TrialSettings, check_cells
from .simulator import run_block

#: Scenarios per work item. It sets the batch size only: every scenario
#: draws from its own stream, so results do not depend on it.
BLOCK_SCENARIOS = 16


class SweepError(RuntimeError):
    """A block of trials inside a sweep failed, or a worker process died;
    the message names the block's scenario indices where they are known."""


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """What to sweep: scenarios x designs x replicates, plus seeding, under
    the trial settings that every trial shares. ``cells`` holds one
    (r0, r1, s0, s1) row per scenario, stored as ``check_cells`` returns
    it. A bad row or base seed, or a table that a myopic design cannot
    pool, raises here, once, before any trial runs."""

    cells: np.ndarray
    designs: tuple[DesignConfig, ...]
    replicates: int = 10
    base_seed: int = 0
    parallelism: int | None = None
    settings: TrialSettings = field(default_factory=TrialSettings)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", check_cells(self.cells))
        if not self.designs:
            raise ValueError("designs must be non-empty")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not (isinstance(self.base_seed, (int, np.integer)) and self.base_seed >= 0):
            raise ValueError(f"base_seed must be a non-negative integer, got {self.base_seed!r}")
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.settings.check_pooling(self.designs)


@dataclass(frozen=True)
class SweepResult:
    """A sweep's mean utilities by position: ``utility[s, d, r]`` is
    replicate r of design ``config.designs[d]`` on ``config.cells[s]``;
    ``u_bar_bar`` and ``std_err`` are its mean and standard error over r."""

    config: SweepConfig
    utility: np.ndarray
    u_bar_bar: np.ndarray
    std_err: np.ndarray
    workers: int

    @property
    def relative(self) -> dict[int, np.ndarray]:
        """``relative_utility`` of the sweep: m -> one ratio per scenario."""
        designs = [(d.myopic_m, d.adapt_c) for d in self.config.designs]
        return relative_utility(self.u_bar_bar, designs)


def scenario_rng(base_seed: int, index: int) -> np.random.Generator:
    """The stream of scenario ``index``, keyed by ``SeedSequence((base_seed,
    index))``; it draws the cohorts of all the scenario's trials."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((base_seed, index))))


def _run_block(task: tuple) -> np.ndarray:
    """Utility (scenarios, designs, replicates) of the checked ``cells``,
    sweep indices ``start`` on, run as one batch under the sweep's checked
    designs, replicates, base seed and settings."""
    start, cells, designs, replicates, base_seed, settings = task
    rngs = [scenario_rng(base_seed, start + offset) for offset in range(len(cells))]
    try:
        block = run_block(cells, rngs, designs, replicates, settings)
    except Exception as exc:
        raise SweepError(
            f"trial failed in scenario indices {start} to {start + len(rngs) - 1}: {exc}"
        ) from exc
    return block.mean_utility.reshape(len(rngs), len(designs), replicates)


def available_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the sweep and aggregate per-cell mean utilities.

    Blocks of scenarios execute concurrently, on at most ``parallelism``
    workers (default: every CPU in the affinity set) and never more than
    there are blocks; the result is identical for any parallelism degree.
    """
    step = BLOCK_SCENARIOS
    fields = (config.designs, config.replicates, config.base_seed, config.settings)
    tasks = [(start, config.cells[start : start + step], *fields) for start in range(0, len(config.cells), step)]
    # No more workers than blocks: a pool starts every worker it is given.
    requested = config.parallelism if config.parallelism is not None else available_cpus()
    workers = min(requested, len(tasks))
    if workers == 1:
        results = list(map(_run_block, tasks))
    else:
        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(executor.map(_run_block, tasks))
        except BrokenProcessPool as exc:
            raise SweepError(f"a sweep worker process died: {exc}") from exc
        finally:
            executor.shutdown()
    utility = np.concatenate(results)
    u_bar_bar = utility.mean(axis=2)
    std_err = (
        utility.std(axis=2, ddof=1) / math.sqrt(config.replicates)
        if config.replicates > 1
        else np.zeros_like(u_bar_bar)
    )
    return SweepResult(config, utility, u_bar_bar, std_err, workers)


def relative_utility(
    u_bar_bar: np.ndarray, designs: Sequence[tuple[int, float]]
) -> dict[int, np.ndarray]:
    """Adaptive (c = 1) over fixed (c = 0) mean utility per scenario, for each m.

    ``u_bar_bar[s, d]`` is the mean utility of scenario s under the design
    whose (m, c) is ``designs[d]``. Every m with both a c = 0 and a c = 1
    design appears, in the order of its c = 1 design; a zero fixed-design
    utility gives NaN.
    """
    column = {(m, c): d for d, (m, c) in enumerate(designs)}
    out = {}
    for m, c in designs:
        if c == 1.0 and (m, 0.0) in column:
            fixed, adaptive = u_bar_bar[:, column[m, 0.0]], u_bar_bar[:, column[m, 1.0]]
            out[m] = np.divide(adaptive, fixed, out=np.full(len(fixed), np.nan), where=fixed != 0.0)
    return out
