"""Shared domain types for the two-stage trial engine.

A trial has two stages. Stage one randomises every participant between
prophylaxis (action 1) and placebo (action 0) with a binary infection
endpoint. Participants who become infected enter stage two, where they are
randomised between active treatment (action 1) and placebo (action 0) with
a binary death endpoint. Everything downstream (inference, allocation,
simulation) is written against the value types defined here.

Two design constants shape a trial:

* ``m`` (myopic flag): with ``m = 1`` the stage-two history collapses to
  the empty history (stage-two data are pooled over the stage-one action)
  and stage-one decisions ignore stage-two payoffs entirely.
* ``c`` (adaptation exponent): randomisation probabilities are
  proportional to expected utility raised to the power ``c``, so ``c = 0``
  is fixed equal randomisation and ``c = 1`` is fully response-adaptive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

#: Stage-one infection-probability grid (21 values, 0 to 1 in steps of 0.05).
R_GRID: tuple[float, ...] = tuple(i / 100 for i in range(0, 101, 5))

#: Stage-two death-probability grid (8 values).
S_GRID: tuple[float, ...] = tuple(i / 100 for i in (5, 10, 20, 40, 60, 80, 90, 95))

#: Reduced grids spanning the same qualitative regions at a fraction of the
#: cost; used for CI and desk-scale runs.
R_GRID_REDUCED: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
S_GRID_REDUCED: tuple[float, ...] = (0.05, 0.4, 0.8, 0.95)


class ConfigurationError(ValueError):
    """Raised when a configuration object (e.g. a utility table) is invalid."""


def _check_binary(name: str, value: int) -> None:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")


def _check_prob(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """Generative truth: infection probabilities (r0, r1) by stage-one arm
    and death probabilities (s0, s1) by stage-one arm.

    The death probability depends on the stage-one action only, never on
    the stage-two action.
    """

    r0: float
    r1: float
    s0: float
    s1: float

    def __post_init__(self) -> None:
        for name in ("r0", "r1", "s0", "s1"):
            _check_prob(name, getattr(self, name))


def _grid(r_values: tuple[float, ...], s_values: tuple[float, ...]) -> list[Scenario]:
    """Every (r0, r1, s0, s1) from the value lists in row-major order: s0
    outermost, then s1, then r0, then r1 innermost.

    The ordering is fixed so CSV output is diff-stable across runs and
    matches the panel layout of the relative-utility matrices (one panel
    per (s0, s1) pair, r0 on the x axis, r1 on the y axis).
    """
    return [
        Scenario(r0=r0, r1=r1, s0=s0, s1=s1)
        for s0 in s_values
        for s1 in s_values
        for r0 in r_values
        for r1 in r_values
    ]


def scenario_grid() -> list[Scenario]:
    """Full scenario grid: 21^2 x 8^2 = 28224 scenarios."""
    return _grid(R_GRID, S_GRID)


def reduced_scenario_grid() -> list[Scenario]:
    """Reduced grid (5^2 x 4^2 = 400 scenarios), same nesting order."""
    return _grid(R_GRID_REDUCED, S_GRID_REDUCED)


#: (a1, y1, a2, y2) of each terminal row: the two uninfected rows, then the
#: stage-two row (a1, a2, y2) at 2 + 4 a1 + 2 a2 + y2.
TERMINAL_ROWS = ((0, 0, None, None), (1, 0, None, None)) + tuple(
    (a1, 1, a2, y2) for a1 in (0, 1) for a2 in (0, 1) for y2 in (0, 1)
)

#: The name of each terminal row, in ``TERMINAL_ROWS`` order.
UTILITY_ROW_KEYS: tuple[str, ...] = tuple(
    f"uninfected_a1_{a1}" if not y1 else f"{('survived', 'died')[y2]}_a1_{a1}_a2_{a2}"
    for a1, y1, a2, y2 in TERMINAL_ROWS
)


@dataclass(frozen=True)
class UtilityTable:
    """Utility of every terminal (history, action, outcome) realisation.

    ``rows`` holds the ten utilities in ``UTILITY_ROW_KEYS`` order. All
    entries must be finite and non-negative so utility-proportional
    randomisation is well defined.
    """

    rows: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != len(UTILITY_ROW_KEYS):
            raise ConfigurationError(f"utility table must have {len(UTILITY_ROW_KEYS)} rows")
        for key, value in self.entries().items():
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0):
                raise ConfigurationError(f"utility for row {key!r} must be finite and >= 0, got {value!r}")

    @classmethod
    def default(cls) -> "UtilityTable":
        """Unit utility for survival, zero for death, at every realisation."""
        return _DEFAULT_UTILITIES

    @classmethod
    def from_entries(cls, entries: Mapping[str, float]) -> "UtilityTable":
        """Build a table from the ten named realisation rows.

        Missing rows fall back to the default table, so a partial override
        (e.g. only the death rows) is enough. Unknown keys are rejected.
        """
        unknown = set(entries) - set(UTILITY_ROW_KEYS)
        if unknown:
            raise ConfigurationError(f"unknown utility rows: {sorted(unknown)}")
        base = cls.default().entries() | {k: float(v) for k, v in entries.items()}
        return cls(tuple(base[key] for key in UTILITY_ROW_KEYS))

    def entries(self) -> dict[str, float]:
        """The ten realisation rows as a flat named mapping."""
        return dict(zip(UTILITY_ROW_KEYS, self.rows))

    def pooled_stage2(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(survived, died) utilities of the pooled (myopic) stage-2 cell for
        each stage-two action; raises ``ConfigurationError`` when they
        depend on the stage-one action."""
        arm0, arm1 = self.rows[2:6], self.rows[6:10]
        for a2 in (0, 1):
            if arm0[2 * a2 : 2 * a2 + 2] != arm1[2 * a2 : 2 * a2 + 2]:
                raise ConfigurationError(
                    "pooled stage-2 utilities are ambiguous: rows "
                    f"survived/died_a1_0_a2_{a2} and _a1_1_a2_{a2} differ"
                )
        return arm0[:2], arm0[2:]


# Shared: the table is a frozen value, the default of every TrialSettings.
_DEFAULT_UTILITIES = UtilityTable((1.0, 1.0) + (1.0, 0.0) * 4)


@dataclass(frozen=True)
class PriorSpec:
    """Prior hyperparameters for both posterior engines.

    The conjugate engine places an independent Beta(alpha, beta) prior on
    each history-action cell; the logistic engine (``engine = "mcmc"``)
    places independent Normal(mean, sd) priors on every regression
    coefficient. Defaults are weakly informative: Beta(1, 1) and
    Normal(0, 2.5).
    """

    conjugate_alpha: float = 1.0
    conjugate_beta: float = 1.0
    coefficient_prior_mean: float = 0.0
    coefficient_prior_sd: float = 2.5

    def __post_init__(self) -> None:
        for name in ("conjugate_alpha", "conjugate_beta", "coefficient_prior_sd"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive real, got {value!r}")
        if not math.isfinite(self.coefficient_prior_mean):
            raise ValueError("coefficient_prior_mean must be finite")


ENGINES: tuple[str, ...] = ("conjugate", "mcmc")


@dataclass(frozen=True)
class DesignConfig:
    """One trial design: the (m, c) cell.

    ``(m, c)`` in {0,1}^2 reproduces the four canonical design cells
    (fixed/adaptive x dynamic/myopic); ``adapt_c`` is generalised to any
    non-negative real, where values between 0 and 1 temper adaptation.
    """

    myopic_m: int
    adapt_c: float

    def __post_init__(self) -> None:
        _check_binary("myopic_m", self.myopic_m)
        if not (math.isfinite(self.adapt_c) and self.adapt_c >= 0.0):
            raise ValueError(f"adapt_c must be a non-negative real, got {self.adapt_c!r}")


#: The four canonical design cells, ordered (m, c) = (0,0), (0,1), (1,0), (1,1).
CANONICAL_DESIGNS = tuple(DesignConfig(myopic_m=m, adapt_c=float(c)) for m in (0, 1) for c in (0, 1))


@dataclass(frozen=True)
class TrialSettings:
    """The trial protocol that every design of a run shares: the sample
    size, enrolled in ``num_interims`` equal cohorts, the prior and
    posterior engine of each interim analysis, and the utility table."""

    max_patients: int = 2000
    num_interims: int = 4
    prior_spec: PriorSpec = field(default_factory=PriorSpec)
    engine: str = "conjugate"
    utilities: UtilityTable = field(default_factory=UtilityTable.default)

    def __post_init__(self) -> None:
        if self.max_patients < 1:
            raise ValueError("max_patients must be positive")
        if self.num_interims < 1:
            raise ValueError("num_interims must be >= 1")
        if self.max_patients % self.num_interims != 0:
            raise ValueError(
                f"max_patients ({self.max_patients}) must be divisible by "
                f"num_interims ({self.num_interims}) for equal-size cohorts"
            )
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")

    def check_pooling(self, designs: Iterable[DesignConfig]) -> None:
        """Raise ``ConfigurationError`` if a myopic design among ``designs``
        cannot pool the table's stage-two utilities."""
        if any(d.myopic_m for d in designs):
            self.utilities.pooled_stage2()
