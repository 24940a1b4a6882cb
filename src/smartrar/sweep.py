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
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import DesignConfig, Scenario, TrialSettings
from .simulator import run_block

#: Scenarios per work item. It sets the batch size only: every scenario
#: draws from its own stream, so results do not depend on it.
BLOCK_SCENARIOS = 16


class SweepError(RuntimeError):
    """A block of trials inside a sweep failed, or a worker process died;
    the message names the block's scenario indices where they are known."""


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep: scenarios x designs x replicates, plus seeding, under
    the trial settings that every trial shares. A utility table that a
    myopic design cannot pool raises ``ConfigurationError`` here, before
    any trial runs."""

    scenarios: tuple[Scenario, ...]
    designs: tuple[DesignConfig, ...]
    replicates: int = 10
    base_seed: int = 0
    parallelism: int | None = None
    settings: TrialSettings = field(default_factory=TrialSettings)

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
        self.settings.check_pooling(self.designs)

    @property
    def cells(self) -> np.ndarray:
        """(r0, r1, s0, s1) of each scenario, shape (scenarios, 4)."""
        return np.array([(s.r0, s.r1, s.s0, s.s1) for s in self.scenarios], dtype=np.float64)


@dataclass(frozen=True)
class SweepResult:
    """A sweep's mean utilities by position: ``utility[s, d, r]`` is
    replicate r of design ``config.designs[d]`` on ``config.scenarios[s]``;
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


def _run_block(args: tuple[int, SweepConfig]) -> np.ndarray:
    """Utility (scenarios, designs, replicates) of the trials of
    ``config.scenarios``, sweep indices ``start`` on, run as one batch."""
    start, config = args
    rngs = [scenario_rng(config.base_seed, start + offset) for offset in range(len(config.scenarios))]
    try:
        block = run_block(config.cells, rngs, config.designs, config.replicates, config.settings)
    except Exception as exc:
        raise SweepError(
            f"trial failed in scenario indices {start} to {start + len(rngs) - 1}: {exc}"
        ) from exc
    return block.mean_utility.reshape(len(rngs), len(config.designs), config.replicates)


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
    tasks = [
        (start, replace(config, scenarios=config.scenarios[start : start + step]))
        for start in range(0, len(config.scenarios), step)
    ]
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
