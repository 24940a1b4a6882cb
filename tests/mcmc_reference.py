"""MCMC reference sampler for parity tests.

``smartrar.inference.logistic_mean`` integrates the logistic model's
posterior means by adaptive Gauss-Hermite quadrature. The sampler here
draws from the same posterior by an independence Metropolis-Hastings
chain whose proposal is a multivariate Student-t centred on the posterior
mode with the Laplace covariance; its per-cell means converge to the same
values. ``test_inference.TestLogisticMean`` and acceptance criterion 5
compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from smartrar import PriorSpec
from smartrar.inference import _design_matrix

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


@dataclass(frozen=True, eq=False)
class PosteriorSummary:
    """MCMC posterior of one cell's event probability: the arithmetic mean
    of its draws, and the draws themselves."""

    mean_event_prob: float
    draws: np.ndarray


@dataclass(frozen=True)
class McmcPosterior:
    """Per-cell posterior summaries from the sampler, plus diagnostics.

    ``cells`` maps each flat cell index to its :class:`PosteriorSummary`.
    ``rhat`` holds the split-chain potential scale reduction per
    coefficient; a value above the 1.05 threshold is flagged in
    ``warnings`` rather than raised.
    """

    cells: Mapping[int, PosteriorSummary]
    rhat: tuple[float, ...]
    warnings: tuple[str, ...] = ()


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
    events: Sequence[int],
    trials: Sequence[int],
    prior: PriorSpec,
    chains: int = DEFAULT_CHAINS,
    warmup: int = DEFAULT_WARMUP,
    sampling: int = DEFAULT_SAMPLING,
    seed: int = 0,
) -> McmcPosterior:
    """Sample per-cell event probabilities from the logistic model posterior.

    ``events`` and ``trials`` are one stage's flat count arrays; their
    length, 2 or 4, selects the design matrix. Runs ``chains`` independent
    chains of ``warmup + sampling`` iterations each and keeps the sampling
    phase, yielding ``chains * sampling`` coefficient draws (4000 under the
    defaults). Coefficient draws are mapped through the linear predictor
    and inverse logit to per-cell probability draws. Deterministic given
    the seed: each chain owns an independent, deterministically derived RNG
    stream, so results do not depend on chain scheduling.
    """
    if chains < 1:
        raise ValueError("chains must be >= 1")
    if warmup < 1 or sampling < 1:
        raise ValueError("warmup and sampling must be >= 1")
    events = np.asarray(events, dtype=np.float64)
    trials = np.asarray(trials, dtype=np.float64)
    if events.shape != trials.shape or np.any(events < 0) or np.any(events > trials):
        raise ValueError("need matching count arrays with 0 <= events <= trials")
    design = _design_matrix(events.size)
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
        j: PosteriorSummary(mean_event_prob=float(np.mean(probs[:, j])), draws=probs[:, j])
        for j in range(events.size)
    }
    return McmcPosterior(cells=cells, rhat=tuple(float(r) for r in rhat), warnings=warnings)
