"""Whole-trial simulation: outcome generation, interim analyses, adaptation.

A trial enrols ``max_patients`` in ``num_interims`` equal cohorts. All
outcomes are observed immediately, so each scheduled analysis sees complete
data for every prior cohort. The first cohort is always randomised
equally at both stages; after each adapting analysis the allocation
probabilities are recomputed from posterior means, Q-values and the
utility-weighting rule, and applied wholesale to the next cohort. The
final analysis never re-randomises.

Outcomes are drawn as counts, not patient by patient. Within a cohort the
allocation probabilities are fixed and patients are independent, so the
numbers of patients in the ten terminal rows (uninfected under each
stage-one arm, then survived or died in each (a1, a2) cell, in
``UTILITY_ROW_KEYS`` order) are Multinomial(n, pi), where pi multiplies the
allocation probabilities by the scenario's rates: infection depends on the
stage-one arm, and death among the infected on the stage-one arm only,
never on the stage-two action. One multinomial draw per cohort gives the
cohort's utility (counts dot row utilities) and its share of the 2 + 2x2
sufficient statistics. This is exact in distribution.

Randomness comes from the Philox counter-based generator seeded from the
design seed. Cohort counts, the MCMC engine and patient records draw from
independent, deterministically derived substreams. The records substream
is made only when records are requested, so asking for them never
changes the mean utility or the allocation path. A trial is reproducible
bit-for-bit from (scenario, design) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .allocation import allocation_pair
from .core import (
    Action,
    DesignConfig,
    PatientRecord,
    Scenario,
    TrialResult,
    UtilityTable,
)
from .inference import conjugate_mean, posterior_mcmc
from .policy import q1_value, q2_value

#: Recorded in output manifests so that outputs of different outcome
#: samplers can be told apart.
ENGINE_IMPLEMENTATION = "cohort-multinomial"

# (a1, y1, a2, y2) of each terminal row, in UTILITY_ROW_KEYS order: the two
# uninfected rows, then the stage-two row (a1, a2, y2) at 2 + 4 a1 + 2 a2 + y2.
_ROWS = ((0, 0, None, None), (1, 0, None, None)) + tuple(
    (a1, 1, a2, y2) for a1 in (0, 1) for a2 in (0, 1) for y2 in (0, 1)
)


Pair = tuple[float, float]


@dataclass(frozen=True)
class InterimSnapshot:
    """Allocation probabilities in force after one adapting analysis.

    ``stage1`` is (P(a1 = 0), P(a1 = 1)); ``stage2`` holds one
    (P(a2 = 0), P(a2 = 1)) pair per stage-one arm, or one pooled pair under
    a myopic design.
    """

    analysis: int
    stage1: Pair
    stage2: tuple[Pair, ...]


def true_value(scenario: Scenario, stage1_action: Action) -> float:
    """Expected participant utility for a stage-one arm under the default
    0/1 utility table: survive-uninfected plus survive-after-infection mass."""
    r = scenario.infection_prob(stage1_action)
    s = scenario.death_prob(stage1_action)
    return (1.0 - r) + r * (1.0 - s)


def _cohort_probs(scenario: Scenario, p1: Pair, p2: Sequence[Pair]) -> list[float]:
    """pi over the ten terminal rows from the allocation in force (laid out
    as in ``InterimSnapshot``): ``p1[a1]`` is P(stage-one arm a1) and ``p2``
    gives P(stage-two arm a2) per stage-one arm, or pooled."""
    r = (scenario.r0, scenario.r1)
    s = (scenario.s0, scenario.s1)
    pi = [p1[0] * (1.0 - r[0]), p1[1] * (1.0 - r[1])]
    for a1 in (0, 1):
        infected = p1[a1] * r[a1]
        after = p2[a1] if len(p2) == 2 else p2[0]
        for a2 in (0, 1):
            cell = infected * after[a2]
            pi += (cell * (1.0 - s[a1]), cell * s[a1])
    return pi


def _sufficient_stats(counts: Sequence[int], myopic_m: int):
    """(events1, trials1, events2, trials2) from cumulative row counts.

    Stage one is indexed by a1. Stage two is flat over the cells (a1, a2)
    at index 2 a1 + a2, whose survived and died rows are counts[2 + 2 j]
    and counts[3 + 2 j]; a myopic design pools it over a1, indexed by a2.
    """
    died = counts[3::2]
    treated = [survived + dead for survived, dead in zip(counts[2::2], died)]
    infected = (treated[0] + treated[1], treated[2] + treated[3])
    trials1 = (counts[0] + infected[0], counts[1] + infected[1])
    if myopic_m:
        died = [died[0] + died[2], died[1] + died[3]]
        treated = [treated[0] + treated[2], treated[1] + treated[3]]
    return infected, trials1, died, treated


def _q_values(
    mean1: Sequence[float], mean2: Sequence[float], u1: Pair, u2: Sequence[Pair], myopic_m: int
) -> tuple[list[float], list[float]]:
    """Posterior means -> (Q1 per a1, Q2 per stage-two cell).

    ``mean2`` and ``u2`` (each cell's (survived, died) utilities) follow
    the stage-two layout of ``_sufficient_stats``: four cells, or two
    pooled ones under a myopic design, whose Q1 has no continuation.
    """
    q2 = [q2_value(alive, dead, mean) for (alive, dead), mean in zip(u2, mean2)]
    best2 = (0.0, 0.0) if myopic_m else (max(q2[0], q2[1]), max(q2[2], q2[3]))
    return [q1_value(u1[a], mean1[a], best2[a]) for a in (0, 1)], q2


def _allocate(
    mean1: Sequence[float],
    mean2: Sequence[float],
    u1: Pair,
    u2: Sequence[Pair],
    design: DesignConfig,
) -> tuple[Pair, tuple[Pair, ...]]:
    """Posterior means -> Q-values -> Q^c allocation for both stages, laid
    out as in ``InterimSnapshot``."""
    c, floor = design.adapt_c, design.min_alloc_prob
    q1, q2 = _q_values(mean1, mean2, u1, u2, design.myopic_m)
    p2 = tuple(allocation_pair(q2[j], q2[j + 1], c, floor) for j in range(0, len(q2), 2))
    return allocation_pair(q1[0], q1[1], c, floor), p2


def _substream(seed: int, index: int) -> np.random.SeedSequence:
    """Child ``index`` of ``SeedSequence(seed)``, as ``spawn`` would make it."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def _spawn_engine_seed(seed_seq: np.random.SeedSequence) -> int:
    return int(seed_seq.generate_state(1, np.uint64)[0])


def _patient_records(
    cohorts: Sequence[np.ndarray], row_utility: Sequence[float], rng: np.random.Generator
) -> tuple[PatientRecord, ...]:
    """Patient records in enrolment order: each cohort's row counts expanded
    to one row per patient and put in a random order (patients within a
    cohort are exchangeable)."""
    templates = [PatientRecord(*row, u) for row, u in zip(_ROWS, row_utility)]
    out: list[PatientRecord] = []
    for counts in cohorts:
        rows = rng.permutation(np.repeat(np.arange(len(_ROWS)), counts))
        out.extend(templates[i] for i in rows.tolist())
    return tuple(out)


def run_trial(
    scenario: Scenario,
    design: DesignConfig,
    *,
    utilities: UtilityTable | None = None,
    keep_records: bool = False,
) -> TrialResult:
    """Simulate one complete trial under the given design.

    Each cohort is one multinomial draw of terminal-row counts (see the
    module docstring). After each adapting analysis the posterior means,
    Q-values and allocation probabilities are recomputed for both stages,
    honouring the myopic flag for both the stage-one utility and the
    stage-two history pooling. The computation also runs when ``c = 0``;
    it then simply reproduces equal allocation.

    A myopic design needs stage-two utilities that do not depend on the
    stage-one arm; an ambiguous table raises ``ConfigurationError`` before
    any draw. Fully deterministic given ``design.seed``; set
    ``keep_records`` to materialise per-patient records (off by default for
    sweep throughput), which leaves every other field unchanged.
    """
    table = utilities if utilities is not None else UtilityTable.default()
    m = design.myopic_m
    u1 = table.stage1_alive
    u2 = table.pooled_stage2() if m else table.stage2[0] + table.stage2[1]
    row_utility = u1 + sum(table.stage2[0] + table.stage2[1], ())
    cohort_size = design.max_patients // design.num_interims
    prior = design.prior_spec

    # Substreams 0 (cohort counts), 1 (MCMC engine) and 2 (patient records)
    # of the design seed, each made only when it is used.
    rng = np.random.Generator(np.random.Philox(_substream(design.seed, 0)))
    engine_children = None
    if design.engine == "mcmc":
        engine_children = _substream(design.seed, 1).spawn(design.num_interims)

    p1: Pair = (0.5, 0.5)
    p2: tuple[Pair, ...] = ((0.5, 0.5),) if m else ((0.5, 0.5), (0.5, 0.5))
    counts = [0] * len(_ROWS)
    cohorts: list[np.ndarray] = []
    snapshots: list[InterimSnapshot] = []
    warnings: list[str] = []

    # Allocation adapts after every analysis but the last.
    for analysis in range(1, design.num_interims + 1):
        cohort = rng.multinomial(cohort_size, _cohort_probs(scenario, p1, p2))
        counts = [k + n for k, n in zip(counts, cohort.tolist())]
        if keep_records:
            cohorts.append(cohort)
        if analysis == design.num_interims:
            break
        events1, trials1, events2, trials2 = _sufficient_stats(counts, m)
        if design.engine == "conjugate":
            mean1 = [conjugate_mean(prior, e, t) for e, t in zip(events1, trials1)]
            mean2 = [conjugate_mean(prior, e, t) for e, t in zip(events2, trials2)]
        else:
            assert engine_children is not None
            seed1_seq, seed2_seq = engine_children[analysis - 1].spawn(2)
            res1 = posterior_mcmc(events1, trials1, prior, seed=_spawn_engine_seed(seed1_seq))
            res2 = posterior_mcmc(events2, trials2, prior, seed=_spawn_engine_seed(seed2_seq))
            warnings.extend(f"analysis {analysis} stage 1: {w}" for w in res1.warnings)
            warnings.extend(f"analysis {analysis} stage 2: {w}" for w in res2.warnings)
            mean1 = [cell.mean_event_prob for cell in res1.cells.values()]
            mean2 = [cell.mean_event_prob for cell in res2.cells.values()]
        p1, p2 = _allocate(mean1, mean2, u1, u2, design)
        snapshots.append(InterimSnapshot(analysis, p1, p2))

    records = None
    if keep_records:
        record_rng = np.random.Generator(np.random.Philox(_substream(design.seed, 2)))
        records = _patient_records(cohorts, row_utility, record_rng)
    total_utility = math.fsum(k * u for k, u in zip(counts, row_utility))
    return TrialResult(
        mean_utility=total_utility / design.max_patients,
        per_interim_alloc=tuple(snapshots),
        seed=design.seed,
        patient_records=records,
        warnings=tuple(warnings),
    )
