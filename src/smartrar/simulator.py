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

Trials run in blocks (``run_block``): one cohort loop over arrays with a
leading trial axis, each cohort one multinomial call per scenario's Philox
stream. Every trial of a block shares one ``TrialSettings``. Both
posterior engines are deterministic functions of the counts, so the counts
are the only random draws of a trial. ``run_trial`` is a block of one
trial, reproducible bit-for-bit from (scenario, design, settings, seed),
and returns its row of the block as arrays: substream 0 of the trial seed
draws the counts and substream 2 orders each cohort's patients by terminal
row, made only when they are requested so that asking for them never
changes the mean utility or allocation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .allocation import allocation_pair
from .core import TERMINAL_ROWS, DesignConfig, Scenario, TrialSettings, UtilityTable
from .inference import conjugate_mean, logistic_mean

#: Recorded in output manifests so that outputs of different outcome
#: samplers can be told apart.
ENGINE_IMPLEMENTATION = "block-multinomial"


@dataclass(frozen=True, eq=False)
class Block:
    """Per-trial results of ``run_block``, rows in (scenario, design,
    replicate) order: after adapting analysis k + 1, ``stage1[t, k]`` is
    (P(a1 = 0), P(a1 = 1)) and ``stage2[t, k, a1]`` the stage-two pair for
    arm a1 (pooled: the same pair twice); ``cohorts[t, k]`` holds cohort
    k + 1's row counts."""

    mean_utility: np.ndarray
    stage1: np.ndarray
    stage2: np.ndarray
    cohorts: np.ndarray


@dataclass(frozen=True, eq=False)
class TrialResult:
    """One trial of ``run_trial``: its row of ``Block``.

    ``mean_utility`` is the mean realised utility over all enrolled
    patients; ``stage1`` (analyses, 2) and ``stage2`` (analyses, 2, 2) are
    the allocations after each adapting analysis, laid out as in ``Block``.
    ``patient_rows`` holds each patient's terminal-row index (into
    ``TERMINAL_ROWS`` and ``UTILITY_ROW_KEYS``) in enrolment order, and is
    filled only when the caller asks for patient-level output.
    """

    mean_utility: float
    stage1: np.ndarray
    stage2: np.ndarray
    patient_rows: np.ndarray | None = None


def _rates(scenario: Scenario) -> tuple[float, float, float, float]:
    return (scenario.r0, scenario.r1, scenario.s0, scenario.s1)


def _cohort_probs(r: np.ndarray, s: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """pi (trials, 10) over the terminal rows from each trial's rates ``r``
    and ``s`` (trials, 2) by a1 and the allocation in force: ``p1[t, a1]``
    is P(stage-one arm a1) and ``p2[t, a1, a2]`` P(stage-two arm a2 | a1)."""
    infected = (p1 * r)[:, :, None] * p2
    pi = np.empty((len(p1), len(TERMINAL_ROWS)))
    pi[:, :2] = p1 * (1.0 - r)
    pi[:, 2::2] = (infected * (1.0 - s)[:, :, None]).reshape(-1, 4)
    pi[:, 3::2] = (infected * s[:, :, None]).reshape(-1, 4)
    return pi


def fixed_design_value(scenario: Scenario, table: UtilityTable | None = None) -> float:
    """Expected per-patient utility under equal allocation at both stages
    (any c = 0 design): the terminal-row probabilities at (1/2, 1/2) dotted
    with the row utilities."""
    table = table if table is not None else UtilityTable.default()
    rates, half = np.array([_rates(scenario)]), np.full((1, 2, 2), 0.5)
    pi = _cohort_probs(rates[:, :2], rates[:, 2:], half[:, 0], half)
    return float(pi[0] @ table.rows)


def _sufficient_stats(counts: np.ndarray, myopic_m):
    """(events1, trials1, events2, trials2) per trial from cumulative row
    counts (trials, 10).

    Stage one is indexed by a1. Stage two is flat over the cells (a1, a2)
    at index 2 a1 + a2, whose survived and died rows are counts[:, 2 + 2 j]
    and counts[:, 3 + 2 j]. In a myopic trial (``myopic_m`` broadcasts
    over the trials) both a1 cells of an a2 hold its counts pooled over a1.
    """
    died = counts[:, 3::2]
    treated = counts[:, 2::2] + died
    infected = treated[:, 0::2] + treated[:, 1::2]
    trials1 = counts[:, :2] + infected
    pooled = np.asarray(myopic_m, dtype=bool)[..., None]
    died = np.where(pooled, np.tile(died[:, :2] + died[:, 2:], 2), died)
    treated = np.where(pooled, np.tile(treated[:, :2] + treated[:, 2:], 2), treated)
    return infected, trials1, died, treated


def _q_values(mean1: np.ndarray, mean2: np.ndarray, utility: np.ndarray, myopic_m):
    """Posterior means -> (Q1 (trials, 2) by a1, Q2 (trials, 4) by cell).

    ``mean2`` follows the stage-two layout of ``_sufficient_stats`` and
    ``utility`` (trials or 1, 10) holds the row utilities. The stage-two
    Q-value of a cell is the utility of its two outcomes weighted by the
    posterior mean death probability:

        Q2(h2, a2) = u(h2, a2, survived) * (1 - E[pi2]) + u(h2, a2, died) * E[pi2]

    The stage-one Q-value folds the best stage-two value into the infection
    branch (backward induction), unless the myopic flag zeroes that branch:

        Q1(a1) = u(a1, uninfected) * (1 - E[pi1])
                 + max_a2 Q2((a1, infected), a2) * (1 - m) * E[pi1]

    Utility is affine in the event probability, so the posterior expected
    utility depends on the posterior only through its mean: averaging it
    over posterior draws would give the same number.
    """
    q2 = utility[:, 2::2] * (1.0 - mean2) + utility[:, 3::2] * mean2
    best2 = np.maximum(q2[:, 0::2], q2[:, 1::2])
    continuation = np.where(np.asarray(myopic_m, dtype=bool)[..., None], 0.0, best2)
    return utility[:, :2] * (1.0 - mean1) + continuation * mean1, q2


def _allocate(mean1, mean2, utility, myopic_m, adapt_c):
    """Posterior means -> Q-values -> Q^c allocation for both stages:
    (p1 (trials, 2), p2 (trials, 2, 2)) laid out as in ``Block``. The
    design constants are floats or per-trial arrays."""
    q1, q2 = _q_values(mean1, mean2, utility, myopic_m)
    c = np.asarray(adapt_c)
    p2 = allocation_pair(q2[:, 0::2], q2[:, 1::2], c[..., None])
    return np.stack(allocation_pair(q1[:, 0], q1[:, 1], c), -1), np.stack(p2, -1)


def _substream(seed: int, index: int) -> np.random.SeedSequence:
    """Child ``index`` of ``SeedSequence(seed)``, as ``spawn`` would make it."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def _posterior_means(settings: TrialSettings, stats, myopic: np.ndarray, adapt_c: np.ndarray):
    """Posterior means (mean1 (trials, 2), mean2 (trials, 4)) from the
    sufficient statistics, laid out as they are.

    The logistic model is fitted only for trials with ``adapt_c != 0``, in
    at most two calls: one two-cell call stacks their stage one with the
    pooled stage two of the myopic ones (fitted on its two cells), and one
    four-cell call takes the rest of stage two. A c = 0 trial is not fitted
    and holds 1/2 throughout, since its allocation is 1/2 whatever its
    means are."""
    events1, trials1, events2, trials2 = stats
    prior = settings.prior_spec
    if settings.engine == "conjugate":
        return conjugate_mean(prior, events1, trials1), conjugate_mean(prior, events2, trials2)
    mean1, mean2 = np.full(trials1.shape, 0.5), np.full(trials2.shape, 0.5)
    adapting = adapt_c != 0.0
    pooled, dynamic = adapting & (myopic != 0), adapting & (myopic == 0)
    if adapting.any():
        n1 = np.count_nonzero(adapting)
        two_cell = logistic_mean(
            prior,
            np.concatenate([events1[adapting], events2[pooled, :2]]),
            np.concatenate([trials1[adapting], trials2[pooled, :2]]),
        )
        mean1[adapting] = two_cell[:n1]
        mean2[pooled] = np.tile(two_cell[n1:], 2)
    if dynamic.any():
        mean2[dynamic] = logistic_mean(prior, events2[dynamic], trials2[dynamic])
    return mean1, mean2


def check_seed(seed: int) -> None:
    """Raise ``ValueError`` unless ``seed`` is a 64-bit unsigned integer."""
    if not (0 <= seed < 2**64):
        raise ValueError("seed must be a 64-bit unsigned integer")


def run_block(
    cells: np.ndarray,
    rngs: Sequence[np.random.Generator],
    designs: Sequence[DesignConfig],
    replicates: int,
    settings: TrialSettings,
) -> Block:
    """Simulate every scenario x design x replicate through one cohort loop.

    ``cells`` (scenarios, 4) holds each scenario's (r0, r1, s0, s1), and
    scenario s draws the cohort counts of its designs x replicates trials
    from ``rngs[s]``. After each adapting analysis the posterior means,
    Q-values and allocations of both stages are recomputed for every trial,
    honouring the myopic flag in the stage-one utility and the stage-two
    pooling. ``c = 0`` reproduces equal allocation, so the logistic model
    is not fitted for those trials (``_posterior_means``). A myopic design
    with an ambiguous pooled table raises ``ConfigurationError`` before any
    draw.
    """
    settings.check_pooling(designs)
    per_scenario, num_interims = len(designs) * replicates, settings.num_interims
    rates = np.repeat(np.asarray(cells, dtype=np.float64), per_scenario, axis=0)
    design_rows = np.repeat([(d.myopic_m, d.adapt_c) for d in designs], replicates, axis=0)
    myopic, adapt_c = np.tile(design_rows, (len(rngs), 1)).T
    # One row of utilities, which broadcasts over the trials.
    utility, n = np.array([settings.utilities.rows]), len(rates)
    p1, p2 = np.full((n, 2), 0.5), np.full((n, 2, 2), 0.5)
    stage1, stage2 = np.empty((n, num_interims - 1, 2)), np.empty((n, num_interims - 1, 2, 2))
    cohorts = np.empty((n, num_interims, len(TERMINAL_ROWS)), dtype=np.int64)
    by_scenario = cohorts.reshape(len(rngs), per_scenario, num_interims, -1)
    for k in range(num_interims):
        pi = _cohort_probs(rates[:, :2], rates[:, 2:], p1, p2).reshape(len(rngs), per_scenario, -1)
        for rng, rows, scenario_pi in zip(rngs, by_scenario, pi):
            rows[:, k] = rng.multinomial(settings.max_patients // num_interims, scenario_pi)
        # Allocation adapts after every analysis but the last.
        if k == num_interims - 1:
            break
        stats = _sufficient_stats(cohorts[:, : k + 1].sum(axis=1), myopic)
        means = _posterior_means(settings, stats, myopic, adapt_c)
        p1, p2 = _allocate(*means, utility, myopic, adapt_c)
        stage1[:, k], stage2[:, k] = p1, p2

    totals = map(math.fsum, (cohorts.sum(axis=1) * utility).tolist())
    mean_utility = np.fromiter(totals, float, n) / settings.max_patients
    return Block(mean_utility, stage1, stage2, cohorts)


def run_trial(
    scenario: Scenario,
    design: DesignConfig,
    settings: TrialSettings,
    *,
    seed: int,
    keep_records: bool = False,
) -> TrialResult:
    """Simulate one complete trial under the given design: a block of one.

    Fully deterministic given ``seed``, a 64-bit unsigned integer whose
    substream 0 draws the cohort counts. A myopic design with an ambiguous
    pooled table raises ``ConfigurationError`` before any draw. Set
    ``keep_records`` to fill ``patient_rows``, which leaves every other
    field unchanged.
    """
    check_seed(seed)
    # Substreams 0 (cohort counts) and 2 (patient order) of the trial
    # seed, each made only when it is used. Substream 1 is unused; patients
    # stay on 2 so that their bytes match earlier versions' output.
    rng = np.random.Generator(np.random.Philox(_substream(seed, 0)))
    block = run_block([_rates(scenario)], [rng], (design,), 1, settings)
    rows = None
    if keep_records:
        # Each cohort's row counts, one entry per patient, in a random order
        # (patients within a cohort are exchangeable).
        order = np.random.Generator(np.random.Philox(_substream(seed, 2)))
        every_row = np.arange(len(TERMINAL_ROWS))
        rows = np.concatenate([order.permutation(np.repeat(every_row, n)) for n in block.cohorts[0]])
    return TrialResult(float(block.mean_utility[0]), block.stage1[0], block.stage2[0], rows)
