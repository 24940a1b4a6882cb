"""Per-patient reference samplers for parity tests.

``run_trial`` draws each cohort's terminal-row counts from one multinomial.
The samplers here draw every patient's outcomes one Bernoulli at a time
and run each interim analysis cell by cell: ``conjugate_mean`` for the
posterior means, the stage-two and stage-one Q-value formulas written out
here, and ``allocation_pair`` for the p ∝ Q^c rule. None of the
simulator's own array code is used, so a fault in it, or in its Q
formulas, shows as a difference. Both must agree in distribution;
``test_simulator.TestCountLevelParity`` compares them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from smartrar import (
    DesignConfig,
    Scenario,
    TrialResult,
    TrialSettings,
    UtilityTable,
    allocation_pair,
    conjugate_mean,
)


def q2_value(survived: float, died: float, mean: float) -> float:
    """Stage-two Q-value: the cell's outcome utilities weighted by its
    posterior mean death probability."""
    return survived * (1.0 - mean) + died * mean


def q1_value(uninfected: float, mean: float, continuation: float) -> float:
    """Stage-one Q-value: the uninfected utility and the infection branch's
    value (the best stage-two Q-value, or 0 under a myopic design) weighted
    by the posterior mean infection probability."""
    return uninfected * (1.0 - mean) + continuation * mean


def generate_patient(
    scenario: Scenario,
    a1: int,
    a2_provider: Callable[[int], int],
    rng: np.random.Generator,
    utilities: UtilityTable | None = None,
) -> tuple[int, int, int | None, int | None, float]:
    """Draw one patient's (a1, y1, a2, y2, utility) given their stage-one
    action; a2 and y2 are None for an uninfected patient.

    Infection is Bernoulli(r_a1); on infection the stage-two action is
    obtained from ``a2_provider`` (called with the stage-one action, which
    with the infection is the patient's dynamic stage-2 history) and death
    is Bernoulli(s_a1). The realized utility is looked up from the table at
    the terminal row.
    """
    entries = (utilities if utilities is not None else UtilityTable.default()).entries()
    y1 = int(rng.random() < (scenario.r1 if a1 else scenario.r0))
    if not y1:
        return a1, 0, None, None, entries[f"uninfected_a1_{a1}"]
    a2 = a2_provider(a1)
    y2 = int(rng.random() < (scenario.s1 if a1 else scenario.s0))
    return a1, 1, a2, y2, entries[f"{('survived', 'died')[y2]}_a1_{a1}_a2_{a2}"]


def per_patient_trial(
    scenario: Scenario, design: DesignConfig, settings: TrialSettings, *, seed: int
) -> TrialResult:
    """One conjugate-engine trial with per-patient vectorised Bernoulli draws.

    Draw order per cohort: assignment, infection (all patients), then
    treatment assignment and death (infected patients, in patient order).
    """
    if settings.engine != "conjugate":
        raise ValueError("the reference covers the conjugate engine only")
    table = settings.utilities
    m = design.myopic_m
    c, prior = design.adapt_c, settings.prior_spec
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    p1_treat = 0.5
    p2_treat = (0.5, 0.5)  # P(a2 = 1) for each stage-one arm
    u_stage1 = np.array(table.rows[:2])
    u_stage2 = np.reshape(table.rows[2:], (2, 2, 2))  # [a1, a2, y2]
    events1 = np.zeros(2, dtype=np.int64)
    trials1 = np.zeros(2, dtype=np.int64)
    events2 = np.zeros((2, 2), dtype=np.int64)
    trials2 = np.zeros((2, 2), dtype=np.int64)
    total_utility = 0.0
    stage1s: list[tuple[float, float]] = []
    stage2s: list[tuple[tuple[float, float], ...]] = []

    def mean(events, trials) -> float:
        return conjugate_mean(prior, int(events), int(trials))

    n = settings.max_patients // settings.num_interims
    for analysis in range(1, settings.num_interims + 1):
        a1 = (rng.random(n) < p1_treat).astype(np.int8)
        y1 = (rng.random(n) < np.where(a1 == 1, scenario.r1, scenario.r0)).astype(np.int8)
        inf_idx = np.nonzero(y1)[0]
        a1_inf = a1[inf_idx]
        treat_p = np.where(a1_inf == 1, p2_treat[1], p2_treat[0])
        a2 = (rng.random(inf_idx.size) < treat_p).astype(np.int8)
        death_p = np.where(a1_inf == 1, scenario.s1, scenario.s0)
        y2 = (rng.random(inf_idx.size) < death_p).astype(np.int8)

        cohort_utility = u_stage1[a1]
        cohort_utility[inf_idx] = u_stage2[a1_inf, a2, y2]
        total_utility += float(cohort_utility.sum())

        trials1 += np.bincount(a1, minlength=2)
        events1 += np.bincount(a1_inf, minlength=2)
        pair = a1_inf.astype(np.int64) * 2 + a2
        trials2 += np.bincount(pair, minlength=4).reshape(2, 2)
        events2 += np.bincount(pair[y2 == 1], minlength=4).reshape(2, 2)

        if analysis == settings.num_interims:
            break
        mean1 = [mean(events1[a], trials1[a]) for a in (0, 1)]
        if m:
            # one pooled stage-two cell per a2; Q1 has no continuation
            pooled = table.pooled_stage2()
            q2 = [
                q2_value(*pooled[a], mean(events2[:, a].sum(), trials2[:, a].sum()))
                for a in (0, 1)
            ]
            stage2 = (allocation_pair(q2[0], q2[1], c),) * 2
            q1 = [q1_value(u_stage1[a], mean1[a], 0.0) for a in (0, 1)]
        else:
            q2 = [
                [q2_value(*u_stage2[h, a], mean(events2[h, a], trials2[h, a])) for a in (0, 1)]
                for h in (0, 1)
            ]
            stage2 = tuple(allocation_pair(q2[h][0], q2[h][1], c) for h in (0, 1))
            q1 = [q1_value(u_stage1[a], mean1[a], max(q2[a])) for a in (0, 1)]
        stage1 = allocation_pair(q1[0], q1[1], c)
        p1_treat = stage1[1]
        p2_treat = (stage2[0][1], stage2[1][1])
        stage1s.append(stage1)
        stage2s.append(stage2)

    # Laid out as run_trial's result: a myopic trial's pooled pair twice.
    return TrialResult(
        total_utility / settings.max_patients,
        np.array(stage1s).reshape(-1, 2),
        np.array(stage2s).reshape(-1, 2, 2),
    )
