"""Posterior inference for per-stage event probabilities.

Two interchangeable engines estimate the event probability of every
history-action cell:

* ``posterior_conjugate`` — exact Beta-Bernoulli update per cell. Because
  the stage-wise regressions are saturated (one free parameter per cell),
  per-cell conjugate inference spans the same model family as the
  regression parameterisation at a tiny fraction of the cost. This is the
  default engine for simulation sweeps.
* ``posterior_mcmc`` — samples the coefficients of the Bernoulli-logistic
  regression (stage 1: intercept + stage-one action; stage 2: intercept +
  stage-two action + stage-one action + interaction; pooled stage 2:
  intercept + stage-two action) under independent normal priors, then maps
  coefficient draws through the linear predictor and inverse logit to
  per-cell probability draws.

The MCMC sampler is an independence Metropolis-Hastings chain whose
proposal is a multivariate Student-t centred on the posterior mode with the
Laplace covariance. The log posterior is strictly concave (bounded 0/1
covariates, proper normal priors), so the mode is found by a short Newton
iteration and the heavy-tailed proposal dominates the target, giving high
acceptance rates and fast mixing. Only the stationary distribution, draw
counts, seeded determinism and the split-chain R-hat diagnostic are
contractual; proposal tuning is internal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import Action, History, PatientRecord, PriorSpec

__all__ = [
    "CellCounts",
    "StageData",
    "PosteriorSummary",
    "CoefficientVector",
    "McmcPosterior",
    "PriorSpec",
    "conjugate_mean",
    "posterior_conjugate",
    "posterior_conjugate_cells",
    "posterior_mcmc",
    "linear_predictor",
    "accumulate",
    "stage_data",
    "split_chain_rhat",
    "DEFAULT_CHAINS",
    "DEFAULT_WARMUP",
    "DEFAULT_SAMPLING",
    "RHAT_THRESHOLD",
]

DEFAULT_CHAINS = 4
DEFAULT_WARMUP = 1000
DEFAULT_SAMPLING = 1000

#: Split-chain potential-scale-reduction threshold above which a
#: convergence warning is attached to the result.
RHAT_THRESHOLD = 1.05

# Proposal shape for the independence sampler: Student-t degrees of freedom
# and a linear inflation of the Laplace scale. The t tails must dominate
# the Gaussian-bounded posterior tails for uniform ergodicity.
_PROPOSAL_DF = 7.0
_PROPOSAL_SCALE = 1.1


@dataclass(frozen=True)
class CellCounts:
    """Sufficient statistics of one history-action cell: event count and
    number of patients observed."""

    events: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 0 or self.events < 0:
            raise ValueError("counts must be non-negative")
        if self.events > self.trials:
            raise ValueError(f"events ({self.events}) exceed trials ({self.trials})")


@dataclass(frozen=True)
class StageData:
    """All cell counts for one stage under a given history structure."""

    stage: int
    cells: Mapping[tuple[History, Action], CellCounts]

    def __post_init__(self) -> None:
        if self.stage not in (1, 2):
            raise ValueError(f"stage must be 1 or 2, got {self.stage!r}")
        if not self.cells:
            raise ValueError("cells must be non-empty")
        for (history, action), counts in self.cells.items():
            if history.stage != self.stage:
                raise ValueError(f"cell history stage {history.stage} != data stage {self.stage}")
            if action not in (0, 1):
                raise ValueError(f"action must be 0 or 1, got {action!r}")
            if not isinstance(counts, CellCounts):
                raise TypeError("cell values must be CellCounts")

    def total_trials(self) -> int:
        return sum(c.trials for c in self.cells.values())


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior of one cell's event probability.

    The conjugate engine reports the exact posterior mean and no draws; the
    MCMC engine reports the arithmetic mean of its draws alongside them.
    """

    mean_event_prob: float
    engine_tag: str
    draws: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.engine_tag not in ("conjugate", "mcmc"):
            raise ValueError(f"engine_tag must be 'conjugate' or 'mcmc', got {self.engine_tag!r}")
        if not (0.0 < self.mean_event_prob < 1.0):
            raise ValueError(f"mean_event_prob must lie in (0, 1), got {self.mean_event_prob!r}")
        if self.engine_tag == "conjugate" and self.draws is not None:
            raise ValueError("conjugate summaries carry no draws")
        if self.draws is not None:
            mean = sum(self.draws) / len(self.draws)
            if abs(mean - self.mean_event_prob) > 1e-9:
                raise ValueError("mean_event_prob must equal the arithmetic mean of draws")


@dataclass(frozen=True)
class CoefficientVector:
    """Regression coefficients for one stage.

    Stage 1 has (intercept, stage-one action): length 2. Stage 2 has
    (intercept, stage-two action, stage-one action, interaction): length 4,
    or (intercept, stage-two action): length 2 when pooled over histories.
    """

    stage: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.stage not in (1, 2):
            raise ValueError(f"stage must be 1 or 2, got {self.stage!r}")
        expected = (2,) if self.stage == 1 else (2, 4)
        if len(self.values) not in expected:
            raise ValueError(
                f"stage {self.stage} coefficient vector must have length in {expected}, "
                f"got {len(self.values)}"
            )


def _design_row(n_coef: int, stage: int, h: History, a: Action) -> tuple[float, ...]:
    """Covariate row for one cell, matching the coefficient ordering."""
    if a not in (0, 1):
        raise ValueError(f"action must be 0 or 1, got {a!r}")
    if stage == 1:
        if h.stage != 1:
            raise ValueError("stage-1 coefficients require a stage-1 history")
        return (1.0, float(a))
    if h.stage != 2:
        raise ValueError("stage-2 coefficients require a stage-2 history")
    if n_coef == 4:
        if h.stage1_action is None:
            raise ValueError("dynamic stage-2 coefficients require an unpooled history")
        a1 = float(h.stage1_action)
        return (1.0, float(a), a1, a1 * float(a))
    if h.stage1_action is not None:
        raise ValueError("pooled stage-2 coefficients require a pooled history")
    return (1.0, float(a))


def linear_predictor(coeffs: CoefficientVector, h: History, a: Action) -> float:
    """Evaluate the stage-appropriate linear predictor at 0/1 covariates.

    The event probability is the inverse logit of this value.
    """
    row = _design_row(len(coeffs.values), coeffs.stage, h, a)
    return float(sum(v * x for v, x in zip(coeffs.values, row)))


def conjugate_mean(prior: PriorSpec, events: int, trials: int) -> float:
    """Beta(alpha, beta) posterior mean of one cell's event probability:
    (alpha + events) / (alpha + beta + trials), the prior mean at zero trials."""
    return (prior.conjugate_alpha + events) / (
        prior.conjugate_alpha + prior.conjugate_beta + trials
    )


def posterior_conjugate(counts: CellCounts, prior: PriorSpec) -> PosteriorSummary:
    """Exact Beta(alpha, beta) posterior for one cell (see ``conjugate_mean``)."""
    return PosteriorSummary(
        mean_event_prob=conjugate_mean(prior, counts.events, counts.trials),
        engine_tag="conjugate",
    )


def posterior_conjugate_cells(
    data: StageData, prior: PriorSpec
) -> dict[tuple[History, Action], PosteriorSummary]:
    """Conjugate posteriors for every cell of a stage."""
    return {key: posterior_conjugate(counts, prior) for key, counts in data.cells.items()}


def stage_data(
    events1: Sequence[int],
    trials1: Sequence[int],
    events2: Sequence[int],
    trials2: Sequence[int],
    myopic_m: int,
) -> tuple[StageData, StageData]:
    """StageData for both stages from count arrays.

    ``events1``/``trials1`` are indexed by stage-one action ``a1`` and
    ``events2``/``trials2`` by ``2 a1 + a2`` over the four stage-two cells;
    a myopic design pools stage two over the stage-one action.
    """
    if myopic_m not in (0, 1):
        raise ValueError(f"myopic_m must be 0 or 1, got {myopic_m!r}")
    h1 = History.first_stage()
    stage1 = StageData(
        stage=1,
        cells={
            (h1, a): CellCounts(events=int(events1[a]), trials=int(trials1[a])) for a in (0, 1)
        },
    )
    if myopic_m:
        pooled = History.second_stage_pooled()
        cells2 = {
            (pooled, a2): CellCounts(
                events=int(events2[a2] + events2[2 + a2]),
                trials=int(trials2[a2] + trials2[2 + a2]),
            )
            for a2 in (0, 1)
        }
    else:
        cells2 = {
            (History.second_stage(a1), a2): CellCounts(
                events=int(events2[2 * a1 + a2]), trials=int(trials2[2 * a1 + a2])
            )
            for a1 in (0, 1)
            for a2 in (0, 1)
        }
    return stage1, StageData(stage=2, cells=cells2)


def accumulate(
    records: Iterable[PatientRecord], myopic_m: int
) -> tuple[StageData, StageData]:
    """Tally sufficient statistics from patient records.

    Stage-1 cells count infections per stage-one arm over all records.
    Stage-2 cells count deaths over infected records only, keyed by
    (stage-one action, stage-two action) under a dynamic design or pooled
    by stage-two action alone under a myopic one. Unobserved cells are
    materialised with zero counts so downstream posteriors fall back to the
    prior.
    """
    events1 = [0, 0]
    trials1 = [0, 0]
    events2 = [0, 0, 0, 0]  # [2 a1 + a2]
    trials2 = [0, 0, 0, 0]
    for record in records:
        a1 = record.stage1_action
        trials1[a1] += 1
        if record.stage1_outcome == 1:
            events1[a1] += 1
            cell = 2 * a1 + record.stage2_action
            trials2[cell] += 1
            events2[cell] += record.stage2_outcome
    return stage_data(events1, trials1, events2, trials2, myopic_m)


@dataclass(frozen=True)
class McmcPosterior:
    """Per-cell posterior summaries from the MCMC engine, plus diagnostics.

    ``cells`` maps (history, action) to :class:`PosteriorSummary`. ``rhat``
    holds the split-chain potential scale reduction per coefficient; a
    value above the 1.05 threshold is flagged in ``warnings`` rather than
    raised.
    """

    cells: Mapping[tuple[History, Action], PosteriorSummary]
    rhat: tuple[float, ...]
    warnings: tuple[str, ...] = ()


def _model_arrays(
    data: StageData,
) -> tuple[list[tuple[History, Action]], np.ndarray, np.ndarray, np.ndarray]:
    """Deterministically ordered cell keys, design matrix and count vectors."""

    def sort_key(key: tuple[History, Action]) -> tuple[int, int]:
        history, action = key
        a1 = history.stage1_action if history.stage1_action is not None else -1
        return (a1, action)

    keys = sorted(data.cells, key=sort_key)
    pooled = any(h.stage == 2 and h.stage1_action is None for h, _ in keys)
    n_coef = 2 if data.stage == 1 or pooled else 4
    design = np.array(
        [_design_row(n_coef, data.stage, h, a) for h, a in keys], dtype=np.float64
    )
    events = np.array([data.cells[k].events for k in keys], dtype=np.float64)
    trials = np.array([data.cells[k].trials for k in keys], dtype=np.float64)
    return keys, design, events, trials


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically stable log(1 / (1 + exp(-x))).
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))


def _log_posterior(
    betas: np.ndarray, design: np.ndarray, events: np.ndarray, trials: np.ndarray, prior: PriorSpec
) -> np.ndarray:
    """Unnormalised log posterior for a batch of coefficient vectors."""
    eta = betas @ design.T
    loglik = events * _log_sigmoid(eta) + (trials - events) * _log_sigmoid(-eta)
    z = (betas - prior.coefficient_prior_mean) / prior.coefficient_prior_sd
    logprior = -0.5 * np.sum(z * z, axis=-1)
    return np.sum(loglik, axis=-1) + logprior


def _laplace_mode(
    design: np.ndarray, events: np.ndarray, trials: np.ndarray, prior: PriorSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mode and inverse negative Hessian via Newton iteration.

    The objective is strictly concave, so this converges from any start.
    """
    p = design.shape[1]
    prec = np.eye(p) / prior.coefficient_prior_sd**2
    beta = np.full(p, prior.coefficient_prior_mean, dtype=np.float64)
    neg_hess = prec
    for _ in range(100):
        eta = design @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        grad = design.T @ (events - trials * mu) - prec @ (beta - prior.coefficient_prior_mean)
        weight = trials * mu * (1.0 - mu)
        neg_hess = design.T @ (design * weight[:, None]) + prec
        step = np.linalg.solve(neg_hess, grad)
        beta = beta + step
        if np.max(np.abs(grad)) < 1e-10:
            break
    return beta, np.linalg.inv(neg_hess)


def _mvt_logpdf(x: np.ndarray, loc: np.ndarray, scale_inv: np.ndarray, logdet: float, df: float) -> np.ndarray:
    p = loc.shape[0]
    z = (x - loc) @ scale_inv.T
    quad = np.sum(z * z, axis=-1)
    const = (
        math.lgamma((df + p) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * p * math.log(df * math.pi)
        - logdet
    )
    return const - 0.5 * (df + p) * np.log1p(quad / df)


def split_chain_rhat(chain_draws: np.ndarray) -> np.ndarray:
    """Split-chain potential scale reduction per coefficient.

    ``chain_draws`` has shape (chains, samples, coefficients); each chain
    is split in half, giving 2 x chains sequences.
    """
    n_chains, n_samples, n_coef = chain_draws.shape
    half = n_samples // 2
    if half < 2:
        raise ValueError("need at least 4 samples per chain for split-chain R-hat")
    seqs = np.concatenate([chain_draws[:, :half, :], chain_draws[:, half : 2 * half, :]], axis=0)
    within = np.mean(np.var(seqs, axis=1, ddof=1), axis=0)
    between_over_n = np.var(np.mean(seqs, axis=1), axis=0, ddof=1)
    rhat = np.empty(n_coef)
    for j in range(n_coef):
        if within[j] <= 0.0:
            rhat[j] = 1.0 if between_over_n[j] <= 0.0 else np.inf
        else:
            var_plus = (half - 1) / half * within[j] + between_over_n[j]
            rhat[j] = math.sqrt(var_plus / within[j])
    return rhat


def posterior_mcmc(
    data: StageData,
    prior: PriorSpec,
    chains: int = DEFAULT_CHAINS,
    warmup: int = DEFAULT_WARMUP,
    sampling: int = DEFAULT_SAMPLING,
    seed: int = 0,
) -> McmcPosterior:
    """Sample per-cell event probabilities from the logistic model posterior.

    Runs ``chains`` independent chains of ``warmup + sampling`` iterations
    each and keeps the sampling phase, yielding ``chains * sampling``
    coefficient draws (4000 under the defaults). Coefficient draws are
    mapped through the linear predictor and inverse logit to per-cell
    probability draws. Deterministic given the seed: each chain owns an
    independent, deterministically derived RNG stream, so results do not
    depend on chain scheduling.
    """
    if chains < 1:
        raise ValueError("chains must be >= 1")
    if warmup < 1 or sampling < 1:
        raise ValueError("warmup and sampling must be >= 1")
    keys, design, events, trials = _model_arrays(data)
    mode, cov = _laplace_mode(design, events, trials, prior)
    scale = np.linalg.cholesky(cov * _PROPOSAL_SCALE**2)
    scale_inv = np.linalg.inv(scale)
    logdet = float(np.sum(np.log(np.diag(scale))))
    n_total = warmup + sampling
    n_coef = design.shape[1]

    chain_states = np.empty((chains, sampling, n_coef), dtype=np.float64)
    streams = np.random.SeedSequence(seed).spawn(chains)
    for ci, stream in enumerate(streams):
        rng = np.random.Generator(np.random.Philox(stream))
        z = rng.standard_normal((n_total, n_coef))
        w = rng.chisquare(_PROPOSAL_DF, n_total)
        proposals = mode + (z @ scale.T) * np.sqrt(_PROPOSAL_DF / w)[:, None]
        log_target = _log_posterior(proposals, design, events, trials, prior)
        if not np.all(np.isfinite(log_target)):
            raise RuntimeError("non-finite log posterior density encountered")
        log_weight = log_target - _mvt_logpdf(proposals, mode, scale_inv, logdet, _PROPOSAL_DF)
        log_u = np.log(rng.random(n_total))
        # Independence Metropolis-Hastings scan over precomputed proposals.
        indices = np.empty(n_total, dtype=np.int64)
        state = 0
        indices[0] = 0
        weights = log_weight.tolist()
        for i in range(1, n_total):
            if log_u[i] < weights[i] - weights[state]:
                state = i
            indices[i] = state
        chain_states[ci] = proposals[indices[warmup:]]

    rhat = split_chain_rhat(chain_states)
    warnings: tuple[str, ...] = ()
    if np.any(rhat > RHAT_THRESHOLD):
        bad = ", ".join(f"beta[{j}]={rhat[j]:.4f}" for j in np.nonzero(rhat > RHAT_THRESHOLD)[0])
        warnings = (f"split-chain R-hat above {RHAT_THRESHOLD}: {bad}",)

    all_draws = chain_states.reshape(chains * sampling, n_coef)
    eta = all_draws @ design.T
    probs = 1.0 / (1.0 + np.exp(-eta))
    cells = {
        key: PosteriorSummary(
            mean_event_prob=float(np.mean(probs[:, j])),
            engine_tag="mcmc",
            draws=tuple(probs[:, j].tolist()),
        )
        for j, key in enumerate(keys)
    }
    return McmcPosterior(cells=cells, rhat=tuple(float(r) for r in rhat), warnings=warnings)
