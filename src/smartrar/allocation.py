"""Utility-weighted randomisation probabilities.

Each action's allocation probability is its expected utility raised to the
power ``c``, normalised over the action set:

    p(a | h) = Q(a)^c / sum_a' Q(a')^c

``c = 0`` gives fixed equal randomisation (0^0 is taken as 1), ``c = 1``
allocates in proportion to expected utility, and an arm whose expected
utility reaches zero stops receiving patients. Q-values must be
non-negative for the power weighting to be well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .core import Action, History

#: Below this total weight the normalisation is considered degenerate and
#: allocation falls back to equal probabilities.
DEGENERATE_TOTAL = 1e-12

SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class AllocationProbs:
    """Randomisation probabilities over actions for one history cell."""

    history: History
    probs: Mapping[Action, float]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("probs must be non-empty")
        for action, p in self.probs.items():
            if action not in (0, 1):
                raise ValueError(f"action must be 0 or 1, got {action!r}")
            if not (math.isfinite(p) and -SUM_TOLERANCE <= p <= 1.0 + SUM_TOLERANCE):
                raise ValueError(f"probability for action {action} out of [0, 1]: {p!r}")
        total = sum(self.probs.values())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"allocation probabilities must sum to 1, got {total!r}")

    def prob(self, action: Action) -> float:
        return self.probs[action]


def equal_allocation(history: History, actions: tuple[Action, ...] = (0, 1)) -> AllocationProbs:
    share = 1.0 / len(actions)
    return AllocationProbs(history=history, probs={a: share for a in actions})


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


def allocation_probs(
    q: Mapping[Action, object],
    c: float,
    *,
    history: History | None = None,
    min_prob: float = 0.0,
) -> AllocationProbs:
    """Convert Q-values for actions 0 and 1 into allocation probabilities.

    ``q`` maps both actions to Q-values (either bare floats or objects with
    a ``value`` attribute). ``min_prob`` imposes an optional floor on every
    probability (re-normalised afterwards); the default of 0 reproduces the
    unfloored rule exactly.
    """
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError(f"exponent c must be a non-negative real, got {c!r}")
    if sorted(q) != [0, 1]:
        raise ValueError(f"Q-values are required for actions 0 and 1, got {sorted(q)!r}")
    values = [float(getattr(q[a], "value", q[a])) for a in (0, 1)]
    for a, v in enumerate(values):
        if not math.isfinite(v):
            raise ValueError(f"Q-value for action {a} is not finite: {v!r}")
        if v < 0.0:
            raise ValueError(
                f"Q-value for action {a} is negative ({v!r}); utility tables must be non-negative"
            )
    p0, p1 = allocation_pair(values[0], values[1], c, min_prob)
    return AllocationProbs(
        history=history if history is not None else History.first_stage(),
        probs={0: p0, 1: p1},
    )
