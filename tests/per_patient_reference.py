"""Per-patient reference samplers for parity tests.

``run_trial`` draws each cohort's terminal-row counts from one multinomial.
The samplers here draw every patient's outcomes one Bernoulli at a time
and run each interim analysis through the validated public chain
(``stage_data`` -> ``posterior_conjugate_cells`` -> ``q_stage2`` /
``q_stage1`` -> ``allocation_probs``). Both must agree in distribution;
``test_simulator.TestCountLevelParity`` compares them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from smartrar import (
    DesignConfig,
    History,
    InterimSchedule,
    InterimSnapshot,
    PatientRecord,
    Scenario,
    TrialResult,
    UtilityTable,
    allocation_probs,
    equal_allocation,
    posterior_conjugate_cells,
    q_stage1,
    q_stage2,
    stage2_histories,
)
from smartrar.core import Action
from smartrar.inference import stage_data


def generate_patient(
    scenario: Scenario,
    a1: Action,
    a2_provider: Callable[[History], Action],
    rng: np.random.Generator,
    utilities: UtilityTable | None = None,
) -> PatientRecord:
    """Draw one patient's outcomes given their stage-one action.

    Infection is Bernoulli(r_a1); on infection the stage-two action is
    obtained from ``a2_provider`` (called with the patient's dynamic
    stage-2 history) and death is Bernoulli(s_a1). The realized utility is
    looked up from the table at the terminal row.
    """
    table = utilities if utilities is not None else UtilityTable.default()
    y1 = int(rng.random() < scenario.infection_prob(a1))
    if not y1:
        return PatientRecord(a1, 0, None, None, table.stage1_utility(a1))
    a2 = a2_provider(History.second_stage(a1))
    y2 = int(rng.random() < scenario.death_prob(a1))
    return PatientRecord(a1, 1, a2, y2, table.stage2_utility(a1, a2, y2))


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
    schedule = InterimSchedule.from_design(design)
    m = design.myopic_m
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(design.seed)))

    alloc1 = equal_allocation(History.first_stage())
    alloc2 = {h: equal_allocation(h) for h in stage2_histories(m)}
    u_stage1 = np.array(table.stage1_alive, dtype=np.float64)
    u_stage2 = np.array(table.stage2, dtype=np.float64)
    events1 = np.zeros(2, dtype=np.int64)
    trials1 = np.zeros(2, dtype=np.int64)
    events2 = np.zeros((2, 2), dtype=np.int64)
    trials2 = np.zeros((2, 2), dtype=np.int64)
    total_utility = 0.0
    snapshots: list[InterimSnapshot] = []

    n = schedule.cohort_size
    for analysis in range(1, schedule.num_analyses + 1):
        p1_treat = alloc1.prob(1)
        if m:
            pooled = alloc2[History.second_stage_pooled()].prob(1)
            p2_treat = (pooled, pooled)
        else:
            p2_treat = tuple(alloc2[History.second_stage(a)].prob(1) for a in (0, 1))

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

        if analysis not in schedule.adapt_at:
            continue
        data1, data2 = stage_data(events1, trials1, events2.ravel(), trials2.ravel(), m)
        post1 = posterior_conjugate_cells(data1, design.prior_spec)
        post2 = posterior_conjugate_cells(data2, design.prior_spec)
        s2q = q_stage2(post2, table)
        s1q = q_stage1({a: post1[(History.first_stage(), a)] for a in (0, 1)}, s2q, table, m)
        alloc1 = allocation_probs(
            {a: s1q[a].value for a in (0, 1)},
            design.adapt_c,
            history=History.first_stage(),
            min_prob=design.min_alloc_prob,
        )
        alloc2 = {
            h: allocation_probs(
                {a: s2q[(h, a)].value for a in (0, 1)},
                design.adapt_c,
                history=h,
                min_prob=design.min_alloc_prob,
            )
            for h in stage2_histories(m)
        }
        snapshots.append(
            InterimSnapshot(
                analysis=analysis,
                stage1=alloc1,
                stage2=tuple(alloc2[h] for h in stage2_histories(m)),
            )
        )

    return TrialResult(
        mean_utility=total_utility / design.max_patients,
        per_interim_alloc=tuple(snapshots),
        seed=design.seed,
    )
