"""Per-patient reference samplers for parity tests.

``run_trial`` draws each cohort's terminal-row counts from one multinomial.
The samplers here draw every patient's outcomes one Bernoulli at a time
and run each interim analysis by composing the formula kernels
(``conjugate_mean`` -> ``q2_value`` / ``q1_value`` -> ``allocation_pair``)
here, not through the simulator's own glue, so a fault in that glue shows
as a difference. Both must agree in distribution;
``test_simulator.TestCountLevelParity`` compares them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from smartrar import (
    DesignConfig,
    Scenario,
    TrialResult,
    UtilityTable,
    allocation_pair,
    conjugate_mean,
    q1_value,
    q2_value,
)
from smartrar.core import Action


def generate_patient(
    scenario: Scenario,
    a1: Action,
    a2_provider: Callable[[Action], Action],
    rng: np.random.Generator,
    utilities: UtilityTable | None = None,
) -> tuple[Action, int, Action | None, int | None, float]:
    """Draw one patient's (a1, y1, a2, y2, utility) given their stage-one
    action; a2 and y2 are None for an uninfected patient.

    Infection is Bernoulli(r_a1); on infection the stage-two action is
    obtained from ``a2_provider`` (called with the stage-one action, which
    with the infection is the patient's dynamic stage-2 history) and death
    is Bernoulli(s_a1). The realized utility is looked up from the table at
    the terminal row.
    """
    table = utilities if utilities is not None else UtilityTable.default()
    y1 = int(rng.random() < scenario.infection_prob(a1))
    if not y1:
        return a1, 0, None, None, table.stage1_alive[a1]
    a2 = a2_provider(a1)
    y2 = int(rng.random() < scenario.death_prob(a1))
    return a1, 1, a2, y2, table.stage2[a1][a2][y2]


def per_patient_trial(
    scenario: Scenario, design: DesignConfig, *, utilities: UtilityTable | None = None
) -> TrialResult:
    """One conjugate-engine trial with per-patient vectorised Bernoulli draws.

    Draw order per cohort: assignment, infection (all patients), then
    treatment assignment and death (infected patients, in patient order).
    """
    if design.engine != "conjugate":
        raise ValueError("the reference covers the conjugate engine only")
    table = utilities if utilities is not None else UtilityTable.default()
    m = design.myopic_m
    c, floor, prior = design.adapt_c, design.min_alloc_prob, design.prior_spec
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(design.seed)))

    p1_treat = 0.5
    p2_treat = (0.5, 0.5)  # P(a2 = 1) for each stage-one arm
    u_stage1 = np.array(table.stage1_alive, dtype=np.float64)
    u_stage2 = np.array(table.stage2, dtype=np.float64)
    events1 = np.zeros(2, dtype=np.int64)
    trials1 = np.zeros(2, dtype=np.int64)
    events2 = np.zeros((2, 2), dtype=np.int64)
    trials2 = np.zeros((2, 2), dtype=np.int64)
    total_utility = 0.0
    stage1s: list[tuple[float, float]] = []
    stage2s: list[tuple[tuple[float, float], ...]] = []

    def mean(events, trials) -> float:
        return conjugate_mean(prior, int(events), int(trials))

    n = design.max_patients // design.num_interims
    for analysis in range(1, design.num_interims + 1):
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

        if analysis == design.num_interims:
            break
        mean1 = [mean(events1[a], trials1[a]) for a in (0, 1)]
        if m:
            # one pooled stage-two cell per a2; Q1 has no continuation
            pooled = table.pooled_stage2()
            q2 = [
                q2_value(*pooled[a], mean(events2[:, a].sum(), trials2[:, a].sum()))
                for a in (0, 1)
            ]
            stage2 = (allocation_pair(q2[0], q2[1], c, floor),) * 2
            q1 = [q1_value(table.stage1_alive[a], mean1[a], 0.0) for a in (0, 1)]
        else:
            q2 = [
                [q2_value(*table.stage2[h][a], mean(events2[h, a], trials2[h, a])) for a in (0, 1)]
                for h in (0, 1)
            ]
            stage2 = tuple(allocation_pair(q2[h][0], q2[h][1], c, floor) for h in (0, 1))
            q1 = [q1_value(table.stage1_alive[a], mean1[a], max(q2[a])) for a in (0, 1)]
        stage1 = allocation_pair(q1[0], q1[1], c, floor)
        p1_treat = stage1[1]
        p2_treat = (stage2[0][1], stage2[1][1])
        stage1s.append(stage1)
        stage2s.append(stage2)

    # Laid out as run_trial's result: a myopic trial's pooled pair twice.
    return TrialResult(
        total_utility / design.max_patients,
        np.array(stage1s).reshape(-1, 2),
        np.array(stage2s).reshape(-1, 2, 2),
    )
