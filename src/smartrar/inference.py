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
deterministic: there are no chains, seeds or convergence diagnostics. It is
also fixed to the bit: the kernels fill reused work arrays in the order of
the plain array expressions, drop only terms that the 0/1 design makes
exact, and keep every sum's array shape, on which numpy's order depends.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import PriorSpec

__all__ = ["conjugate_mean", "logistic_mean"]

#: Gauss-Hermite nodes per coefficient.
_NODES = 7

#: Recorded in output manifests: how each engine computes posterior means.
POSTERIOR_IMPLEMENTATION = {"conjugate": "beta-conjugate", "mcmc": f"logistic-gauss-hermite-k{_NODES}"}

# A row's Newton iteration stops once every gradient entry is below this.
_GRADIENT_TOL = 1e-10
_MAX_NEWTON_STEPS = 100

# Rows integrated per pass: a few at a time keep the (rows, cells, nodes)
# work arrays small (7 ** 4 nodes per row in the four-cell model, 2.8 MB in
# all for 8 rows); ``_node_means`` makes them once per call and reuses them.
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
def _model(n_cells: int) -> tuple[np.ndarray, np.ndarray, list[slice]]:
    """The design (cells, p), its per-cell outer products (cells, p, p) and,
    per coefficient after the intercept, the slice of cells whose covariate is 1."""
    design = _design_matrix(n_cells)
    cells = [slice(c[0], None, c[1] - c[0] if len(c) > 1 else 1) for c in map(np.flatnonzero, design.T[1:])]
    return design, design[:, :, None] * design[:, None, :], cells


@lru_cache(maxsize=None)
def _product_rule(dims: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal nodes (dims, 7 ** dims) of the product Gauss-Hermite
    rule, and each node's log weight over the standard normal density there,
    up to a constant."""
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(_NODES)
    at = np.indices((_NODES,) * dims).reshape(dims, -1)
    return np.sqrt(2.0) * x[at], (np.log(w) + x * x)[at].sum(axis=0)


def _linear_predictor(cells: list[slice], beta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """eta (rows, cells, ...) into ``out`` from beta (rows, p, ...): each cell's
    coefficients added in index order, the design product exactly (0/1 design)."""
    out[:] = beta[:, :1]
    for k, at in enumerate(cells, start=1):
        out[:, at] += beta[:, k : k + 1]
    return out


def _neg_hessian(model, trials, beta, prior_precision, eta):
    """Negative Hessian (rows, p, p) of the log posterior at beta (rows, p),
    and ``trials * mu``; ``eta`` (rows, cells) is work space."""
    # eta, then mu = 1 / (1 + exp(-eta)) in its place.
    mu = _linear_predictor(model[2], beta, eta)
    np.exp(np.negative(mu, out=mu), out=mu)
    mu += 1.0
    np.divide(1.0, mu, out=mu)
    expected = trials * mu
    weight = np.multiply(expected, np.subtract(1.0, mu, out=mu), out=mu)
    neg_hess = (weight[..., None, None] * model[1]).sum(axis=1)
    neg_hess += prior_precision
    return neg_hess, expected


def _posterior_mode(model, events, trials, prior):
    """Posterior mode (rows, p) and the negative Hessian there, by Newton
    iteration from the prior mean. Each row stops on its own gradient and is
    then frozen, so that its mode does not depend on the other rows; the
    rows still moving are updated in place and gathered again only when a
    row stops. Raises ``ValueError`` if a row has not stopped after
    ``_MAX_NEWTON_STEPS`` steps (full steps can cycle under a strong prior)."""
    design, mean, sd2 = model[0], prior.coefficient_prior_mean, prior.coefficient_prior_sd**2
    prior_precision = np.eye(design.shape[1]) / sd2
    beta = np.full((len(events), design.shape[1]), float(mean))
    eta = np.empty(trials.shape)
    rows, current, moving_events, moving_trials = np.arange(len(events)), beta, events, trials
    for _ in range(_MAX_NEWTON_STEPS):
        neg_hess, expected = _neg_hessian(model, moving_trials, current, prior_precision, eta[: len(rows)])
        grad = (np.subtract(moving_events, expected, out=expected)[..., None] * design).sum(axis=1)
        grad -= (current - mean) / sd2
        current += np.linalg.solve(neg_hess, grad[..., None])[..., 0]
        still = np.abs(grad, out=grad).max(axis=1) >= _GRADIENT_TOL
        if not still.all():
            beta[rows] = current
            rows, current = rows[still], current[still]
            if not rows.size:
                return beta, _neg_hessian(model, trials, beta, prior_precision, eta)[0]
            moving_events, moving_trials = events[rows], trials[rows]
    raise ValueError(
        f"Newton iteration for the posterior mode did not converge in {_MAX_NEWTON_STEPS} steps "
        f"for {len(rows)} of {len(events)} rows under {prior}"
    )


def _node_means(model, events, trials, prior, mode, scale):
    """Posterior means (rows, cells) by the product rule about ``mode``
    (rows, p), scaled by the Laplace covariance's Cholesky factor ``scale``.

    Rows are integrated ``_ROWS_PER_PASS`` at a time in work arrays made
    once per call and filled in place (``out=``), in the order of the fresh
    expressions they stand for. Arrays this large go back to the system
    when freed, so making them for every pass would fault their pages in
    again on every pass."""
    design, _, cells = model
    z, log_weight = _product_rule(len(design))
    n, nodes = min(len(events), _ROWS_PER_PASS), z.shape[1]
    # Coefficients, linear predictor, log probability and a temporary (rows, p =
    # cells, nodes); then the log posterior and prior penalty (rows, nodes).
    work, sums = np.empty((4, n, len(design), nodes)), np.empty((2, n, nodes))
    survivors, means = trials - events, np.empty(events.shape)
    for at in range(0, len(events), _ROWS_PER_PASS):
        rows = slice(at, min(at + n, len(events)))
        (b, e, lp, w), (post, pen) = work[:, : rows.stop - at], sums[:, : rows.stop - at]
        # The factor is lower triangular: coefficient i takes nodes j <= i.
        np.multiply(scale[rows, :, 0, None], z[0], out=b)
        for j in range(1, len(z)):
            b[:, j:] += np.multiply(scale[rows, j:, j, None], z[j], out=w[:, j:])
        b += mode[rows, :, None]
        _linear_predictor(cells, b, e)
        # log sigmoid(eta); exp(-|eta|) cannot overflow.
        np.exp(np.negative(np.abs(e, out=w), out=w), out=w)
        np.subtract(np.minimum(e, 0.0, out=lp), np.log1p(w, out=w), out=lp)
        np.multiply(trials[rows, :, None], lp, out=w)
        w -= np.multiply(survivors[rows, :, None], e, out=e)
        w.sum(axis=1, out=post)
        # The prior's log density, up to a constant.
        b -= prior.coefficient_prior_mean
        b /= prior.coefficient_prior_sd
        np.multiply(b, b, out=b).sum(axis=1, out=pen)
        np.add(log_weight, post, out=post)
        post -= np.multiply(pen, 0.5, out=pen)
        post -= post.max(axis=-1, keepdims=True)
        weight = np.exp(post, out=post)
        np.multiply(weight[:, None], np.exp(lp, out=lp), out=lp).sum(axis=-1, out=means[rows])
        means[rows] /= weight.sum(axis=-1)[:, None]
    return means


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
    model = _model(events.shape[-1])
    mode, neg_hess = _posterior_mode(model, events, trials, prior)
    scale = np.linalg.cholesky(np.linalg.inv(neg_hess))
    return _node_means(model, events, trials, prior, mode, scale)
