"""Utility-weighted randomisation probabilities.

Each action's allocation probability is its expected utility raised to the
power ``c``, normalised over the two actions (``allocation_pair``):

    p(a | h) = Q(a)^c / sum_a' Q(a')^c

``c = 0`` gives fixed equal randomisation (0^0 is taken as 1), ``c = 1``
allocates in proportion to expected utility, and an arm whose expected
utility reaches zero stops receiving patients. Q-values must be
non-negative for the power weighting to be well defined; ``UtilityTable``
and ``DesignConfig`` guarantee this and ``c >= 0`` at the boundary.
"""

from __future__ import annotations

#: Below this total weight the normalisation is considered degenerate and
#: allocation falls back to equal probabilities.
DEGENERATE_TOTAL = 1e-12


def allocation_pair(q0: float, q1: float, c: float, min_prob: float = 0.0) -> tuple[float, float]:
    """The p ∝ Q^c rule over actions (0, 1) on plain floats, unvalidated.

    Falls back to equal probabilities when ``c = 0`` or the total weight is
    degenerate, then applies the optional ``min_prob`` floor and
    re-normalises. Callers guarantee finite non-negative Q-values and a
    finite non-negative ``c``.
    """
    if c == 0.0:
        p0 = p1 = 0.5
    else:
        w0, w1 = q0**c, q1**c
        total = w0 + w1
        if total < DEGENERATE_TOTAL:
            p0 = p1 = 0.5
        else:
            p0, p1 = w0 / total, w1 / total
    if min_prob > 0.0:
        p0, p1 = max(p0, min_prob), max(p1, min_prob)
        total = p0 + p1
        p0, p1 = p0 / total, p1 / total
    return p0, p1
