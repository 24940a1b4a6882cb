"""Scenario-grid sweeps over trial designs, with deterministic parallelism.

Each scenario owns one random stream (``scenario_rng``), so its results
are a pure function of the base seed and its index, identical whatever the
block it runs in, the degree of parallelism or the execution order. Work
items are blocks of consecutive scenarios, each simulated as one
``run_block`` batch under the sweep's one ``TrialSettings``; aggregation is
a deterministic reduction into index order.

A block holds as many scenarios as fit in ``BLOCK_TRIALS`` trials (at
least one), but no more than an equal share of the scenarios among the
requested workers, so that a small grid still gives each worker a block;
that share is never cut below ``BLOCK_TRIALS // 8`` trials, so a small
grid on many CPUs runs as a few blocks rather than one worker process per
scenario. A serial sweep of up to ``BLOCK_TRIALS`` trials is one block,
and a block's memory is bounded whatever the number of replicates.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import DesignConfig, TrialSettings, check_cells
from .simulator import run_block

#: Trials per work item, at most (a block holds at least one scenario). It
#: sets the batch size only: every scenario draws from its own stream, so
#: results do not depend on it.
BLOCK_TRIALS = 4096


class SweepError(RuntimeError):
    """A block of trials inside a sweep failed, or a worker process died;
    the message names the block's scenario indices where they are known."""


def _is_count(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """What to sweep: scenarios x designs x replicates, plus seeding, under
    the trial settings that every trial shares. ``cells`` holds one
    (r0, r1, s0, s1) row per scenario, stored as ``check_cells`` returns
    it. A bad row or base seed, or a table that a myopic design cannot
    pool, or a ``replicates`` or ``parallelism`` that is not an integer
    count, raises here, once, before any trial runs."""

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
        if not (_is_count(self.replicates) and self.replicates >= 1):
            raise ValueError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        if not (isinstance(self.base_seed, (int, np.integer)) and self.base_seed >= 0):
            raise ValueError(f"base_seed must be a non-negative integer, got {self.base_seed!r}")
        if self.parallelism is not None and not (_is_count(self.parallelism) and self.parallelism >= 1):
            raise ValueError(f"parallelism must be an integer >= 1, got {self.parallelism!r}")
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
    rngs = [scenario_rng(base_seed, index) for index in range(start, start + len(cells))]
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


def ProcessPoolExecutor(max_workers: int):
    """A ``concurrent.futures.ProcessPoolExecutor``, imported when a sweep
    first runs a pool: ``multiprocessing`` takes about 10 ms to import,
    which a serial sweep, ``simulate`` and ``report`` need not pay."""
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(max_workers=max_workers)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the sweep and aggregate per-cell mean utilities.

    Blocks of scenarios execute concurrently, on at most ``parallelism``
    workers (default: every CPU in the affinity set) and never more than
    there are blocks; the result is identical for any parallelism degree.
    """
    requested = config.parallelism if config.parallelism is not None else available_cpus()
    scenarios, per_scenario = len(config.cells), len(config.designs) * config.replicates
    # An equal share per worker, but no share under an eighth of the budget:
    # a small grid on many CPUs keeps a few blocks (and workers) of real work.
    share = max(-(-scenarios // requested), -(-(BLOCK_TRIALS // 8) // per_scenario))
    step = max(1, min(BLOCK_TRIALS // per_scenario, share))
    fields = (config.designs, config.replicates, config.base_seed, config.settings)
    tasks = [(start, config.cells[start : start + step], *fields) for start in range(0, scenarios, step)]
    # No more workers than blocks: a pool starts every worker it is given.
    workers = min(requested, len(tasks))
    if workers == 1:
        results = list(map(_run_block, tasks))
    else:
        from concurrent.futures.process import BrokenProcessPool

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
