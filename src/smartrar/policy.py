"""Decision-theoretic Q-learning over posterior event probabilities.

The stage-two Q-value of an action is the outcome-probability-weighted
utility of its two possible outcomes:

    Q2(h2, a2) = u(h2, a2, survived) * (1 - E[pi2]) + u(h2, a2, died) * E[pi2]

The stage-one Q-value folds the best achievable stage-two value into the
infection branch (backward induction), unless the myopic flag zeroes that
branch:

    Q1(a1) = u(a1, uninfected) * (1 - E[pi1])
             + max_a2 Q2((a1, infected), a2) * (1 - m) * E[pi1]

Because utilities are affine in the event probability, the posterior
expected utility depends on the posterior only through its mean, so
Q-values are computed from posterior means directly; averaging utility over
posterior draws would give the same number. Ties in every argmax break
toward action 0 (placebo/control).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import Action, History, UtilityTable
from .inference import PosteriorSummary


@dataclass(frozen=True)
class QValue:
    """Posterior expected utility of taking ``action`` given ``history``."""

    history: History
    action: Action
    value: float


@dataclass(frozen=True)
class PolicySnapshot:
    """Q-values and argmax decisions for both stages at one analysis."""

    stage2_q: Mapping[tuple[History, Action], QValue]
    stage2_opt: Mapping[History, Action]
    stage1_q: Mapping[Action, QValue]
    stage1_opt: Action


def q2_value(alive: float, dead: float, mean: float) -> float:
    """Stage-two Q-value from a cell's (survived, died) utilities and its
    posterior mean death probability."""
    return alive * (1.0 - mean) + dead * mean


def q1_value(uninfected: float, mean: float, continuation: float) -> float:
    """Stage-one Q-value from the uninfected utility, the posterior mean
    infection probability and the value carried by the infection branch
    (the best stage-two Q-value, or 0 under a myopic design)."""
    return uninfected * (1.0 - mean) + continuation * mean


def q_stage2(
    posteriors: Mapping[tuple[History, Action], PosteriorSummary],
    utilities: UtilityTable,
) -> dict[tuple[History, Action], QValue]:
    """Stage-two Q-values for every posterior cell provided.

    With the default 0/1 utility table this reduces to one minus the
    posterior mean death probability.
    """
    out: dict[tuple[History, Action], QValue] = {}
    for (history, action), summary in posteriors.items():
        if history.stage != 2:
            raise ValueError(f"stage-2 posteriors required, got stage-{history.stage} history")
        alive, dead = utilities.stage2_outcome_utilities(history.stage1_action, action)
        out[(history, action)] = QValue(
            history=history, action=action, value=q2_value(alive, dead, summary.mean_event_prob)
        )
    return out


def _max_stage2(stage2_q: Mapping[tuple[History, Action], QValue], history: History) -> float:
    values = []
    for action in (0, 1):
        qv = stage2_q.get((history, action))
        if qv is None:
            raise ValueError(f"missing stage-2 Q-value for history {history}, action {action}")
        values.append(qv.value)
    return max(values)


def q_stage1(
    stage1_posteriors: Mapping[Action, PosteriorSummary],
    stage2_q: Mapping[tuple[History, Action], QValue],
    utilities: UtilityTable,
    myopic_m: int,
) -> dict[Action, QValue]:
    """Stage-one Q-values via backward induction.

    With ``myopic_m = 1`` the stage-two continuation term is dropped and
    the infection branch contributes zero utility; ``stage2_q`` is then
    unused.
    """
    if myopic_m not in (0, 1):
        raise ValueError(f"myopic_m must be 0 or 1, got {myopic_m!r}")
    h1 = History.first_stage()
    out: dict[Action, QValue] = {}
    for action in (0, 1):
        summary = stage1_posteriors.get(action)
        if summary is None:
            raise ValueError(f"missing stage-1 posterior for action {action}")
        continuation = 0.0 if myopic_m else _max_stage2(stage2_q, History.second_stage(action))
        value = q1_value(utilities.stage1_utility(action), summary.mean_event_prob, continuation)
        out[action] = QValue(history=h1, action=action, value=value)
    return out


def _argmax_action(values: Mapping[Action, float]) -> Action:
    # Ties break toward action 0.
    return 1 if values[1] > values[0] else 0


def optimal_policy(
    stage1_posteriors: Mapping[Action, PosteriorSummary],
    stage2_posteriors: Mapping[tuple[History, Action], PosteriorSummary],
    utilities: UtilityTable,
    myopic_m: int,
) -> PolicySnapshot:
    """Backward-inducted Q-values and optimal decisions for both stages."""
    stage2_q = q_stage2(stage2_posteriors, utilities)
    histories = sorted(
        {history for history, _ in stage2_q},
        key=lambda h: -1 if h.stage1_action is None else h.stage1_action,
    )
    stage2_opt = {
        history: _argmax_action({a: stage2_q[(history, a)].value for a in (0, 1)})
        for history in histories
    }
    stage1_q = q_stage1(stage1_posteriors, stage2_q, utilities, myopic_m)
    stage1_opt = _argmax_action({a: stage1_q[a].value for a in (0, 1)})
    return PolicySnapshot(
        stage2_q=stage2_q, stage2_opt=stage2_opt, stage1_q=stage1_q, stage1_opt=stage1_opt
    )


def brute_force_value(
    stage1_posteriors: Mapping[Action, PosteriorSummary],
    stage2_posteriors: Mapping[tuple[History, Action], PosteriorSummary],
    utilities: UtilityTable,
) -> dict[Action, float]:
    """Independent oracle for the dynamic stage-one value.

    Enumerates both stage-two decision rules for each stage-one action and
    maximises the resulting two-stage expected utility directly, without
    the backward-induction path. Equals ``q_stage1`` with ``myopic_m = 0``
    exactly, because the maximum commutes with the positive affine map of
    the stage-one utility.
    """
    out: dict[Action, float] = {}
    for a1 in (0, 1):
        summary = stage1_posteriors.get(a1)
        if summary is None:
            raise ValueError(f"missing stage-1 posterior for action {a1}")
        mean1 = summary.mean_event_prob
        u_alive = utilities.stage1_utility(a1)
        history = History.second_stage(a1)
        best = None
        for a2 in (0, 1):
            cell = stage2_posteriors.get((history, a2))
            if cell is None:
                raise ValueError(f"missing stage-2 posterior for history {history}, action {a2}")
            alive, dead = utilities.stage2_outcome_utilities(a1, a2)
            candidate = q1_value(u_alive, mean1, q2_value(alive, dead, cell.mean_event_prob))
            if best is None or candidate > best:
                best = candidate
        assert best is not None
        out[a1] = best
    return out
