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

from .allocation import AllocationProbs, allocation_pair
from .core import (
    Action,
    DesignConfig,
    History,
    PatientRecord,
    PriorSpec,
    Scenario,
    TrialResult,
    UtilityTable,
    stage2_histories,
)
from .inference import conjugate_mean, posterior_mcmc, stage_data
from .policy import q1_value, q2_value

#: Recorded in output manifests so that outputs of different outcome
#: samplers can be told apart.
ENGINE_IMPLEMENTATION = "cohort-multinomial"

# (a1, y1, a2, y2) of each terminal row, in UTILITY_ROW_KEYS order: the two
# uninfected rows, then the stage-two row (a1, a2, y2) at 2 + 4 a1 + 2 a2 + y2.
_ROWS = ((0, 0, None, None), (1, 0, None, None)) + tuple(
    (a1, 1, a2, y2) for a1 in (0, 1) for a2 in (0, 1) for y2 in (0, 1)
)


@dataclass(frozen=True)
class InterimSchedule:
    """Cohort size and analysis plan for one trial.

    ``adapt_at`` lists the analyses after which allocation probabilities
    are recomputed; the final analysis is never among them.
    """

    cohort_size: int
    num_analyses: int = 4
    adapt_at: frozenset[int] = frozenset({1, 2, 3})

    def __post_init__(self) -> None:
        if self.cohort_size < 1:
            raise ValueError("cohort_size must be positive")
        if self.num_analyses < 1:
            raise ValueError("num_analyses must be positive")
        allowed = set(range(1, self.num_analyses))
        if not set(self.adapt_at) <= allowed:
            raise ValueError(
                f"adapt_at must be a subset of {{1, ..., {self.num_analyses - 1}}}, "
                f"got {sorted(self.adapt_at)}"
            )

    @classmethod
    def from_design(cls, design: DesignConfig) -> "InterimSchedule":
        """Equal cohorts with adaptation at every analysis but the last."""
        return cls(
            cohort_size=design.max_patients // design.num_interims,
            num_analyses=design.num_interims,
            adapt_at=frozenset(range(1, design.num_interims)),
        )


@dataclass(frozen=True)
class InterimSnapshot:
    """Allocation probabilities in force after one adapting analysis."""

    analysis: int
    stage1: AllocationProbs
    stage2: tuple[AllocationProbs, ...]


def true_value(scenario: Scenario, stage1_action: Action) -> float:
    """Expected participant utility for a stage-one arm under the default
    0/1 utility table: survive-uninfected plus survive-after-infection mass."""
    r = scenario.infection_prob(stage1_action)
    s = scenario.death_prob(stage1_action)
    return (1.0 - r) + r * (1.0 - s)


Pair = tuple[float, float]


def _cohort_probs(scenario: Scenario, p1: Pair, p2: Sequence[Pair]) -> list[float]:
    """pi over the ten terminal rows: ``p1[a1]`` is P(stage-one arm a1) and
    ``p2[a1][a2]`` is P(stage-two arm a2 | stage-one arm a1)."""
    r = (scenario.r0, scenario.r1)
    s = (scenario.s0, scenario.s1)
    pi = [p1[0] * (1.0 - r[0]), p1[1] * (1.0 - r[1])]
    for a1 in (0, 1):
        infected = p1[a1] * r[a1]
        for a2 in (0, 1):
            cell = infected * p2[a1][a2]
            pi += (cell * (1.0 - s[a1]), cell * s[a1])
    return pi


def _sufficient_stats(counts: Sequence[int]):
    """(events1, trials1, events2, trials2) from cumulative row counts.

    Stage two is flat over the cells (a1, a2) at index 2 a1 + a2, whose
    survived and died rows are counts[2 + 2 j] and counts[3 + 2 j].
    """
    died = counts[3::2]
    treated = [survived + dead for survived, dead in zip(counts[2::2], died)]
    infected = (treated[0] + treated[1], treated[2] + treated[3])
    return infected, (counts[0] + infected[0], counts[1] + infected[1]), died, treated


def _conjugate_means(counts: Sequence[int], prior: PriorSpec, myopic_m: int):
    """Stage-one and flat stage-two posterior means; a myopic design pools
    stage two over a1, so both a1 halves hold the pooled means."""
    events1, trials1, events2, trials2 = _sufficient_stats(counts)
    if myopic_m:
        events2 = [events2[0] + events2[2], events2[1] + events2[3]] * 2
        trials2 = [trials2[0] + trials2[2], trials2[1] + trials2[3]] * 2
    mean1 = [conjugate_mean(prior, e, t) for e, t in zip(events1, trials1)]
    return mean1, [conjugate_mean(prior, e, t) for e, t in zip(events2, trials2)]


def _allocate(
    mean1: Sequence[float],
    mean2: Sequence[float],
    u1: Pair,
    u2: Sequence[Pair],
    design: DesignConfig,
) -> tuple[Pair, tuple[Pair, Pair]]:
    """Posterior means -> Q2, Q1 -> Q^c allocation for both stages.

    Stage two is flat over (a1, a2) at index 2 a1 + a2; ``u2`` holds each
    cell's (survived, died) utilities. Under a myopic design both a1 halves
    are the pooled cell.
    """
    c, floor = design.adapt_c, design.min_alloc_prob
    q2 = [q2_value(alive, dead, mean) for (alive, dead), mean in zip(u2, mean2)]
    best2 = (0.0, 0.0) if design.myopic_m else (max(q2[0], q2[1]), max(q2[2], q2[3]))
    q1 = [q1_value(u1[a], mean1[a], best2[a]) for a in (0, 1)]
    after0 = allocation_pair(q2[0], q2[1], c, floor)
    after1 = after0 if design.myopic_m else allocation_pair(q2[2], q2[3], c, floor)
    return allocation_pair(q1[0], q1[1], c, floor), (after0, after1)


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
    u2 = table.pooled_stage2() * 2 if m else table.stage2[0] + table.stage2[1]
    row_utility = u1 + sum(table.stage2[0] + table.stage2[1], ())
    schedule = InterimSchedule.from_design(design)

    # Substreams 0 (cohort counts), 1 (MCMC engine) and 2 (patient records)
    # of the design seed, each made only when it is used.
    rng = np.random.Generator(np.random.Philox(_substream(design.seed, 0)))
    engine_children = None
    if design.engine == "mcmc":
        engine_children = _substream(design.seed, 1).spawn(schedule.num_analyses)

    p1: Pair = (0.5, 0.5)
    p2: tuple[Pair, Pair] = ((0.5, 0.5), (0.5, 0.5))
    counts = [0] * len(_ROWS)
    cohorts: list[np.ndarray] = []
    path: list[tuple[int, Pair, tuple[Pair, Pair]]] = []
    warnings: list[str] = []

    for analysis in range(1, schedule.num_analyses + 1):
        cohort = rng.multinomial(schedule.cohort_size, _cohort_probs(scenario, p1, p2))
        counts = [k + n for k, n in zip(counts, cohort.tolist())]
        if keep_records:
            cohorts.append(cohort)
        if analysis not in schedule.adapt_at:
            continue
        if design.engine == "conjugate":
            mean1, mean2 = _conjugate_means(counts, design.prior_spec, m)
        else:
            assert engine_children is not None
            seed1_seq, seed2_seq = engine_children[analysis - 1].spawn(2)
            data1, data2 = stage_data(*_sufficient_stats(counts), m)
            res1 = posterior_mcmc(data1, design.prior_spec, seed=_spawn_engine_seed(seed1_seq))
            res2 = posterior_mcmc(data2, design.prior_spec, seed=_spawn_engine_seed(seed2_seq))
            warnings.extend(f"analysis {analysis} stage 1: {w}" for w in res1.warnings)
            warnings.extend(f"analysis {analysis} stage 2: {w}" for w in res2.warnings)
            mean1 = [res1.cells[(History.first_stage(), a)].mean_event_prob for a in (0, 1)]
            h2 = (History.second_stage_pooled(),) * 2 if m else stage2_histories(0)
            mean2 = [res2.cells[(h, a2)].mean_event_prob for h in h2 for a2 in (0, 1)]
        p1, p2 = _allocate(mean1, mean2, u1, u2, design)
        path.append((analysis, p1, p2))

    histories = stage2_histories(m)
    snapshots = tuple(
        InterimSnapshot(
            analysis=analysis,
            stage1=AllocationProbs(History.first_stage(), {0: q1[0], 1: q1[1]}),
            stage2=tuple(
                AllocationProbs(h, {0: q[0], 1: q[1]}) for h, q in zip(histories, q2)
            ),
        )
        for analysis, q1, q2 in path
    )
    records = None
    if keep_records:
        record_rng = np.random.Generator(np.random.Philox(_substream(design.seed, 2)))
        records = _patient_records(cohorts, row_utility, record_rng)
    total_utility = math.fsum(k * u for k, u in zip(counts, row_utility))
    return TrialResult(
        mean_utility=total_utility / design.max_patients,
        per_interim_alloc=snapshots,
        seed=design.seed,
        patient_records=records,
        warnings=tuple(warnings),
    )
