"""Decision-theoretic Q-values from posterior event probabilities.

The stage-two Q-value of an action is the outcome-probability-weighted
utility of its two possible outcomes (``q2_value``):

    Q2(h2, a2) = u(h2, a2, survived) * (1 - E[pi2]) + u(h2, a2, died) * E[pi2]

The stage-one Q-value (``q1_value``) folds the best achievable stage-two
value into the infection branch (backward induction), unless the myopic
flag zeroes that branch:

    Q1(a1) = u(a1, uninfected) * (1 - E[pi1])
             + max_a2 Q2((a1, infected), a2) * (1 - m) * E[pi1]

Because utilities are affine in the event probability, the posterior
expected utility depends on the posterior only through its mean, so
Q-values are computed from posterior means directly; averaging utility over
posterior draws would give the same number.
"""

from __future__ import annotations


def q2_value(alive: float, dead: float, mean: float) -> float:
    """Stage-two Q-value from a cell's (survived, died) utilities and its
    posterior mean death probability."""
    return alive * (1.0 - mean) + dead * mean


def q1_value(uninfected: float, mean: float, continuation: float) -> float:
    """Stage-one Q-value from the uninfected utility, the posterior mean
    infection probability and the value carried by the infection branch
    (the best stage-two Q-value, or 0 under a myopic design)."""
    return uninfected * (1.0 - mean) + continuation * mean
