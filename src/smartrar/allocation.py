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

import numpy as np

#: Below this total weight the normalisation is considered degenerate and
#: allocation falls back to equal probabilities.
DEGENERATE_TOTAL = 1e-12


def allocation_pair(q0, q1, c):
    """The p ∝ Q^c rule over actions (0, 1), unvalidated.

    Arguments are floats or arrays that broadcast against each other; the
    result is a pair of floats or of arrays of the broadcast shape. Falls
    back to equal probabilities when ``c = 0`` or the total weight is
    degenerate. Callers guarantee finite non-negative Q-values and a
    finite non-negative ``c``.
    """
    c = np.asarray(c, dtype=np.float64)
    w0, w1 = np.power(q0, c), np.power(q1, c)
    total = w0 + w1
    equal = (c == 0.0) | (total < DEGENERATE_TOTAL)
    safe = np.where(equal, 1.0, total)
    p0, p1 = np.where(equal, 0.5, w0 / safe), np.where(equal, 0.5, w1 / safe)
    # [()] turns 0-d results back into scalars and leaves arrays as they are.
    return p0[()], p1[()]
