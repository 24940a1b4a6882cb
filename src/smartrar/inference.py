"""Posterior inference for per-cell event probabilities.

A stage's data are flat count arrays: events and trials per cell, indexed
by the stage-one action ``a1`` at stage one, and by ``2 a1 + a2`` at stage
two, or by ``a2`` alone when a myopic design pools stage two over ``a1``.
Two interchangeable engines give each cell's posterior mean event
probability, for a whole block of trials at once:

* ``conjugate_mean`` — the exact Beta-Bernoulli posterior mean per cell.
  Because the stage-wise regressions are saturated (one free parameter per
  cell), per-cell conjugate inference spans the same model family as the
  regression parameterisation at a tiny fraction of the cost. This is the
  default engine (``--engine conjugate``).
* ``logistic_mean`` — the posterior means under the Bernoulli-logistic
  regression (stage 1: intercept + stage-one action; stage 2: intercept +
  stage-two action + stage-one action + interaction; pooled stage 2:
  intercept + stage-two action) with independent normal priors on the
  coefficients (``--engine mcmc``, a name kept from the sampler this
  replaced).

The log posterior of the logistic model is strictly concave (bounded 0/1
covariates, proper normal priors), so a short Newton iteration finds its
mode and the inverse negative Hessian there, the Laplace covariance. The
posterior means are then integrated by a product Gauss-Hermite rule with
seven nodes per coefficient, centred on the mode and scaled by the Laplace
covariance (adaptive Gauss-Hermite quadrature: Naylor and Smith, Applied
Statistics 1982; Liu and Pierce, Biometrika 1994). The result is
deterministic: there are no chains, seeds or convergence diagnostics.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import PriorSpec

__all__ = ["PriorSpec", "conjugate_mean", "logistic_mean"]

#: Gauss-Hermite nodes per coefficient.
_NODES = 7

#: Recorded in output manifests: how each engine computes posterior means.
POSTERIOR_IMPLEMENTATION = {"conjugate": "beta-conjugate", "mcmc": f"logistic-gauss-hermite-k{_NODES}"}

# A row's Newton iteration stops once every gradient entry is below this.
_GRADIENT_TOL = 1e-10
_MAX_NEWTON_STEPS = 100

# Rows integrated per pass: a few at a time keep the (rows, cells, nodes)
# arrays small (7 ** 4 nodes per row in the four-cell model).
_ROWS_PER_PASS = 8


def conjugate_mean(prior: PriorSpec, events: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """Beta(alpha, beta) posterior mean event probability per cell:
    (alpha + events) / (alpha + beta + trials), the prior mean at zero trials.

    ``events`` and ``trials`` are count arrays of one shape, such as
    (rows, cells); the result has that shape. Scalars work too."""
    return (prior.conjugate_alpha + events) / (
        prior.conjugate_alpha + prior.conjugate_beta + trials
    )


def _design_matrix(n_cells: int) -> np.ndarray:
    """Covariate rows of the logistic model, one per flat cell.

    Two cells (stage one by a1, or stage two pooled by a2) give rows
    (1, a); four (stage two at 2 a1 + a2) give (1, a2, a1, a1 a2).
    """
    if n_cells == 2:
        return np.array([[1.0, 0.0], [1.0, 1.0]])
    if n_cells == 4:
        return np.array([[1.0, a2, a1, a1 * a2] for a1 in (0.0, 1.0) for a2 in (0.0, 1.0)])
    raise ValueError(f"the logistic model has 2 or 4 cells, got {n_cells}")


@lru_cache(maxsize=None)
def _product_rule(dims: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal nodes (dims, 7 ** dims) of the product Gauss-Hermite
    rule, and each node's log weight over the standard normal density there,
    up to a constant."""
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(_NODES)
    at = np.indices((_NODES,) * dims).reshape(dims, -1)
    return np.sqrt(2.0) * x[at], (np.log(w) + x * x)[at].sum(axis=0)


def _linear_predictor(design: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """eta (rows, cells, n) from coefficients beta (rows, p, n), one
    coefficient at a time."""
    return sum(design[:, k, None] * beta[:, None, k] for k in range(design.shape[1]))


def _newton_terms(design, events, trials, prior, beta):
    """Gradient (rows, p) and negative Hessian (rows, p, p) of the log
    posterior at the coefficients ``beta`` (rows, p)."""
    mu = 1.0 / (1.0 + np.exp(-_linear_predictor(design, beta[..., None])[..., 0]))
    grad = ((events - trials * mu)[..., None] * design).sum(axis=1)
    grad -= (beta - prior.coefficient_prior_mean) / prior.coefficient_prior_sd**2
    weight = trials * mu * (1.0 - mu)
    neg_hess = (weight[..., None, None] * design[:, :, None] * design[:, None, :]).sum(axis=1)
    return grad, neg_hess + np.eye(design.shape[1]) / prior.coefficient_prior_sd**2


def _posterior_mode(design, events, trials, prior):
    """Posterior mode (rows, p) and the negative Hessian there, by Newton
    iteration from the prior mean. Each row stops on its own gradient and is
    then frozen, so that its mode does not depend on the other rows."""
    beta = np.full((len(events), design.shape[1]), float(prior.coefficient_prior_mean))
    active = np.arange(len(events))
    for _ in range(_MAX_NEWTON_STEPS):
        grad, neg_hess = _newton_terms(design, events[active], trials[active], prior, beta[active])
        beta[active] += np.linalg.solve(neg_hess, grad[..., None])[..., 0]
        active = active[np.abs(grad).max(axis=1) >= _GRADIENT_TOL]
        if not active.size:
            break
    return beta, _newton_terms(design, events, trials, prior, beta)[1]


def _node_means(design, events, trials, prior, mode, scale):
    """Posterior means (rows, cells) by the product rule about ``mode``
    (rows, p), scaled by the Laplace covariance's Cholesky factor ``scale``."""
    z, log_weight = _product_rule(design.shape[1])
    # The coefficients (rows, p, nodes) and the linear predictor at every node.
    beta = mode[..., None] + sum(scale[:, :, k, None] * z[k] for k in range(len(z)))
    eta = _linear_predictor(design, beta)
    # log sigmoid(eta); exp(-|eta|) cannot overflow.
    log_prob = np.minimum(eta, 0.0) - np.log1p(np.exp(-np.abs(eta)))
    log_lik = (trials[..., None] * log_prob - (trials - events)[..., None] * eta).sum(axis=1)
    z_prior = (beta - prior.coefficient_prior_mean) / prior.coefficient_prior_sd
    log_post = log_weight + log_lik - 0.5 * (z_prior * z_prior).sum(axis=1)
    weight = np.exp(log_post - log_post.max(axis=-1, keepdims=True))
    return (weight[:, None] * np.exp(log_prob)).sum(axis=-1) / weight.sum(axis=-1)[:, None]


def logistic_mean(prior: PriorSpec, events: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """Posterior mean event probability per cell under the logistic model.

    ``events`` and ``trials`` are (rows, cells) count arrays, one row per
    trial; 2 or 4 cells select the design matrix. Each row is integrated
    by the product rule about its own posterior mode, and every sum runs
    over an explicit axis, so a row's means do not depend on the other
    rows of the batch. With no data and a zero coefficient prior mean,
    every mean is 1/2.
    """
    events, trials = np.asarray(events, dtype=np.float64), np.asarray(trials, dtype=np.float64)
    design = _design_matrix(events.shape[-1])
    mode, neg_hess = _posterior_mode(design, events, trials, prior)
    scale = np.linalg.cholesky(np.linalg.inv(neg_hess))
    means = np.empty(events.shape)
    for at in range(0, len(events), _ROWS_PER_PASS):
        rows = slice(at, at + _ROWS_PER_PASS)
        means[rows] = _node_means(design, events[rows], trials[rows], prior, mode[rows], scale[rows])
    return means
