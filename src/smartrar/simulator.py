"""Whole-trial simulation: outcome generation, interim analyses, adaptation.

A trial enrols ``max_patients`` in ``num_interims`` equal cohorts. All
outcomes are observed immediately, so each scheduled analysis sees complete
data for every prior cohort. The first cohort is always randomised
equally at both stages; after each adapting analysis the allocation
probabilities are recomputed from posterior means, Q-values and the
p ∝ Q^c rule (``allocation_probs``), and applied wholesale to the next
cohort. The final analysis never re-randomises.

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

A trial's total utility is the ``math.fsum`` of its row counts times the row
utilities. When every row utility is a non-negative integer and
``max_patients`` times the largest is at most 2**53, every product and
partial sum of a float dot product is an exact integer, so the block sums
by one dot product instead, with the same bits; any other table keeps
``fsum``.

Trials run in blocks (``run_block``): one cohort loop over arrays with a
leading trial axis, each cohort one multinomial call per scenario's Philox
stream (a stream whose trials share one row of probabilities, as at the
first cohort, draws through the cheaper 1-D path, with the same
variates), then one ``_policy_step`` from the adapting trials' cumulative
counts to their next allocation. Every trial of a block shares one
``TrialSettings``, and ``run_block`` takes inputs that ``run_trial`` or
``SweepConfig`` checked. Both posterior engines are deterministic
functions of the counts, so the counts are the only random draws of a
trial. ``run_trial`` is a block of one trial, reproducible bit-for-bit
from (cell, design, settings, seed), and returns its row of the block as
arrays: substream 0 of the trial seed draws the counts and substream 2
orders each cohort's patients by terminal row, made only when they are
requested so that asking for them never changes the mean utility or
allocation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import TERMINAL_ROWS, DesignConfig, TrialSettings, UtilityTable, check_cells
from .inference import conjugate_mean, logistic_mean

#: Recorded in output manifests so that outputs of different outcome
#: samplers can be told apart.
ENGINE_IMPLEMENTATION = "block-multinomial"

#: Below this total Q^c weight (or at an overflowed one) a pair's weights
#: are recomputed from Q / max Q; see ``allocation_probs``.
DEGENERATE_TOTAL = 1e-12


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


#: Equal allocation at both stages: every first cohort, and any c = 0 design.
_HALF = np.full((2, 2), 0.5)


def _cohort_probs(r: np.ndarray, s: np.ndarray, p1: np.ndarray = _HALF[0], p2: np.ndarray = _HALF) -> np.ndarray:
    """pi (trials, 10) over the terminal rows from each trial's rates ``r``
    and ``s`` (trials, 2) by a1 and the allocation in force: ``p1[t, a1]``
    is P(stage-one arm a1) and ``p2[t, a1, a2]`` P(stage-two arm a2 | a1),
    equal at both stages by default."""
    infected = (p1 * r)[:, :, None] * p2
    pi = np.empty((len(r), len(TERMINAL_ROWS)))
    pi[:, :2] = p1 * (1.0 - r)
    pi[:, 2::2] = (infected * (1.0 - s)[:, :, None]).reshape(-1, 4)
    pi[:, 3::2] = (infected * s[:, :, None]).reshape(-1, 4)
    return pi


def fixed_design_value(cell, table: UtilityTable | None = None) -> float:
    """Expected per-patient utility of the scenario ``cell`` (r0, r1, s0, s1)
    under equal allocation at both stages (any c = 0 design): the
    terminal-row probabilities at (1/2, 1/2) dotted with the row utilities."""
    table = table if table is not None else UtilityTable.default()
    rates = check_cells([cell])
    return float(_cohort_probs(rates[:, :2], rates[:, 2:])[0] @ table.rows)


def _stats_map() -> np.ndarray:
    """The 0/1 map (10, 12) from row counts to the columns of (events1,
    events2, trials1, trials2): events before trials, so that one
    ``conjugate_mean`` call takes every cell."""
    out = np.zeros((len(TERMINAL_ROWS), 12))
    out[[0, 1], [6, 7]] = 1.0  # uninfected: trials1
    for j in range(4):  # stage-two cell 2 a1 + a2: its survived and died rows
        rows = slice(2 + 2 * j, 4 + 2 * j)
        out[rows, j // 2] = out[rows, 6 + j // 2] = 1.0  # infected: events1, trials1
        out[3 + 2 * j, 2 + j] = 1.0  # died: events2
        out[rows, 8 + j] = 1.0  # treated: trials2
    return out


#: Row counts (trials, 10) times this map give the dynamic sufficient
#: statistics exactly (integer sums far below 2**53).
_STATS_MAP = _stats_map()


def _pool_map() -> np.ndarray:
    """The 0/1 map (12, 12) from the dynamic statistics to the pooled ones:
    each stage-two column becomes the sum of the a1 = 0 and a1 = 1 columns
    of its a2, exact as integer sums; the other columns stay."""
    out = np.eye(12)
    for column in (2, 3, 8, 9):  # events2 and trials2 of a1 = 0, by a2
        out[column, column + 2] = out[column + 2, column] = 1.0
    return out


_POOL_MAP = _pool_map()


def _sufficient_stats(counts: np.ndarray, myopic_m) -> np.ndarray:
    """The sufficient statistics (trials, 12) from cumulative row counts
    (trials, 10): one product of the counts with the dynamic map, whose
    integer-valued columns hold events1 (2), events2 (4), trials1 (2) and
    trials2 (4) in that order.

    Stage one is indexed by a1. Stage two is flat over the cells (a1, a2)
    at index 2 a1 + a2, whose survived and died rows are counts[:, 2 + 2 j]
    and counts[:, 3 + 2 j]. In a myopic trial (``myopic_m`` broadcasts
    over the trials) both a1 cells of an a2 hold its counts pooled over a1,
    the sum of its two dynamic cells (``_POOL_MAP``).
    """
    table = counts @ _STATS_MAP
    pooled = np.asarray(myopic_m, dtype=bool)
    if pooled.any():
        np.copyto(table, table @ _POOL_MAP, where=pooled[..., None])
    return table


def _q_values(mean1: np.ndarray, mean2: np.ndarray, utility: np.ndarray, myopic_m) -> np.ndarray:
    """Posterior means -> Q (trials, 6): Q1 by a1, then Q2 by cell, so that
    ``q.reshape(-1, 3, 2)`` holds the stage-one pair and the stage-two pair
    of each a1.

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
    return np.concatenate([utility[:, :2] * (1.0 - mean1) + continuation * mean1, q2], axis=1)


def allocation_probs(q, c):
    """The p ∝ Q^c rule over the trailing action axis, unvalidated:

        p(a | h) = Q(a)^c / sum_a' Q(a')^c

    ``q`` (..., 2) holds finite non-negative Q-values and ``c`` (finite,
    non-negative) broadcasts against ``q[..., 0]``; the result has the
    broadcast shape (..., 2). ``c = 0`` gives equal allocation (0^0 is
    taken as 1), ``c = 1`` allocates in proportion to Q, and an arm whose
    Q is zero gets no patients. A pair whose weights underflow (total below
    ``DEGENERATE_TOTAL``) or overflow at large ``c`` is weighted by
    (Q / max Q)^c instead, which is the same rule since it ignores the
    scale of Q; only a pair of zero Q-values falls back to equal allocation.
    """
    q, c = np.asarray(q, dtype=np.float64), np.asarray(c, dtype=np.float64)[..., None]
    with np.errstate(over="ignore"):
        w = np.power(q, c)
    total = w[..., :1] + w[..., 1:]
    off = (total < DEGENERATE_TOTAL) | (total == np.inf)
    if off.any():
        top = q.max(axis=-1, keepdims=True)
        rescale = off & (top > 0.0)
        w = np.where(rescale, np.power(q / np.where(rescale, top, 1.0), c), w)
        total = w[..., :1] + w[..., 1:]
    equal = (c == 0.0) | (total < DEGENERATE_TOTAL)
    return np.where(equal, 0.5, w / np.where(equal, 1.0, total))


def _substream(seed: int, index: int) -> np.random.SeedSequence:
    """Child ``index`` of ``SeedSequence(seed)``, as ``spawn`` would make it."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def _posterior_means(settings: TrialSettings, table: np.ndarray, myopic: np.ndarray):
    """Posterior means (mean1 (trials, 2), mean2 (trials, 4)) from the
    sufficient statistics (trials, 12) of at least one trial
    (``_sufficient_stats``), laid out as they are.

    The conjugate engine takes one call over the whole table. The logistic
    model takes at most two calls: one two-cell call stacks every trial's
    stage one with the pooled stage two of the myopic ones (fitted on its
    two cells), and one four-cell call, made only if some trial is dynamic,
    takes the rest of stage two."""
    prior, events, trials = settings.prior_spec, table[:, :6], table[:, 6:]
    if settings.engine == "conjugate":
        means = conjugate_mean(prior, events, trials)
        return means[:, :2], means[:, 2:]
    pooled, n = myopic != 0, len(table)
    two_cell = logistic_mean(
        prior,
        np.concatenate([events[:, :2], events[pooled, 2:4]]),
        np.concatenate([trials[:, :2], trials[pooled, 2:4]]),
    )
    mean2 = np.empty((n, 4))
    mean2[pooled] = np.tile(two_cell[n:], 2)
    if not pooled.all():
        mean2[~pooled] = logistic_mean(prior, events[~pooled, 2:], trials[~pooled, 2:])
    return two_cell[:n], mean2


def _policy_step(settings: TrialSettings, total: np.ndarray, myopic: np.ndarray, adapt_c: np.ndarray):
    """One interim analysis of adapting trials with design constants
    ``myopic`` and ``adapt_c``: cumulative row counts ``total`` (trials, 10)
    -> sufficient statistics -> posterior means -> Q-values -> Q^c
    allocation (p1 (trials, 2), p2 (trials, 2, 2)), laid out as in
    ``Block``. A trial's result does not depend on the other trials."""
    means = _posterior_means(settings, _sufficient_stats(total, myopic), myopic)
    # One row of utilities, which broadcasts over the trials.
    q = _q_values(*means, np.array([settings.utilities.rows]), myopic).reshape(-1, 3, 2)
    p = allocation_probs(q, adapt_c[:, None])
    return p[:, 0], p[:, 1:]


def _patient_rows(cohorts: np.ndarray, order: np.random.Generator) -> np.ndarray:
    """Each patient's terminal row in enrolment order from the row counts
    (cohorts, 10): the rows of a cohort in a random order (patients within
    a cohort are exchangeable). Each cohort's slice is shuffled in place,
    which makes the draws that ``order.permutation`` of the slice would."""
    rows = np.repeat(np.tile(np.arange(cohorts.shape[1]), len(cohorts)), cohorts.ravel())
    ends = np.cumsum(cohorts.sum(axis=1)).tolist()
    for start, end in zip([0, *ends], ends):
        order.shuffle(rows[start:end])
    return rows


def _utility_totals(total: np.ndarray, rows: Sequence[float], max_patients: int) -> np.ndarray:
    """Each trial's total utility from its row counts (trials, 10): the
    ``math.fsum`` of the counts times the row utilities ``rows``. When every
    row utility is an integer and ``max_patients`` times the largest is at
    most 2**53, each product and partial sum of one float dot product is an
    exact integer, so the dot product gives the same bits; any other table
    keeps ``fsum``."""
    if all(float(u).is_integer() for u in rows) and max_patients * int(max(rows)) <= 2**53:
        return total @ np.asarray(rows, dtype=np.float64)
    return np.fromiter(map(math.fsum, (total * np.asarray(rows, dtype=np.float64)).tolist()), float, len(total))


def check_seed(seed: int) -> None:
    """Raise ``ValueError`` unless ``seed`` is a 64-bit unsigned integer."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
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
    Q-values and allocations of both stages are recomputed, honouring the
    myopic flag in the stage-one utility and the stage-two pooling, for the
    c != 0 trials only: ``c = 0`` allocates 1/2 whatever the data, so those
    trials keep the first cohort's probabilities and are never analysed,
    under either engine.

    Unvalidated, like ``allocation_probs``: ``cells`` holds probabilities
    (as ``check_cells`` returns them) and ``settings`` can pool the stage
    two of every myopic design (``TrialSettings.check_pooling``). The
    public entry points, ``run_trial`` and ``SweepConfig``, check both.
    """
    cells = np.asarray(cells, dtype=np.float64)
    per_scenario, num_interims = len(designs) * replicates, settings.num_interims
    design_rows = np.repeat([(d.myopic_m, d.adapt_c) for d in designs], replicates, axis=0)
    design_rows = np.tile(design_rows, (len(rngs), 1))
    adapting = np.flatnonzero(design_rows[:, 1] != 0.0)
    myopic, adapt_c = design_rows[adapting].T
    r, s = cells[adapting // per_scenario, :2], cells[adapting // per_scenario, 2:]
    n, pi = len(design_rows), np.repeat(_cohort_probs(cells[:, :2], cells[:, 2:]), per_scenario, axis=0)
    # The allocations of the adapting trials, written into the block once.
    p1s, p2s = np.empty((len(adapting), num_interims - 1, 2)), np.empty((len(adapting), num_interims - 1, 2, 2))
    cohorts = np.empty((n, num_interims, len(TERMINAL_ROWS)), dtype=np.int64)
    total, pvals = np.zeros((n, len(TERMINAL_ROWS))), pi.reshape(len(rngs), per_scenario, -1)
    cohort = settings.max_patients // num_interims
    for k in range(num_interims):
        # Where a stream's trials share one row of pvals (its first cohort, a
        # block with no adapting trial, a stream of one trial), the 1-D pvals
        # path draws them: the same variates as the 2-D path, without most of
        # its fixed cost per call.
        shared = k == 0 or not len(adapting) or per_scenario == 1
        draws = [
            rng.multinomial(cohort, p[0], size=per_scenario) if shared else rng.multinomial(cohort, p)
            for rng, p in zip(rngs, pvals)
        ]
        total += np.concatenate(draws, out=cohorts[:, k])
        # Allocation adapts after every analysis but the last, where c != 0.
        if k == num_interims - 1 or not len(adapting):
            continue
        p1s[:, k], p2s[:, k] = _policy_step(settings, total[adapting], myopic, adapt_c)
        pi[adapting] = _cohort_probs(r, s, p1s[:, k], p2s[:, k])

    stage1, stage2 = np.full((n, num_interims - 1, 2), 0.5), np.full((n, num_interims - 1, 2, 2), 0.5)
    stage1[adapting], stage2[adapting] = p1s, p2s
    mean_utility = _utility_totals(total, settings.utilities.rows, settings.max_patients) / settings.max_patients
    return Block(mean_utility, stage1, stage2, cohorts)


def run_trial(
    cell,
    design: DesignConfig,
    settings: TrialSettings,
    *,
    seed: int,
    keep_records: bool = False,
) -> TrialResult:
    """Simulate one complete trial of the scenario ``cell`` (r0, r1, s0, s1)
    under the given design: a block of one.

    Fully deterministic given ``seed``, a 64-bit unsigned integer whose
    substream 0 draws the cohort counts. A bad cell or seed raises
    ``ValueError``, and a myopic design with an ambiguous pooled table
    ``ConfigurationError``, before any draw. Set ``keep_records`` to fill
    ``patient_rows``, which leaves every other field unchanged.
    """
    check_seed(seed)
    settings.check_pooling((design,))
    # Substreams 0 (cohort counts) and 2 (patient order) of the trial
    # seed, each made only when it is used. Substream 1 is unused; patients
    # stay on 2 so that their bytes match earlier versions' output.
    rng = np.random.Generator(np.random.Philox(_substream(seed, 0)))
    block = run_block(check_cells([cell]), [rng], (design,), 1, settings)
    rows = None
    if keep_records:
        rows = _patient_rows(block.cohorts[0], np.random.Generator(np.random.Philox(_substream(seed, 2))))
    return TrialResult(float(block.mean_utility[0]), block.stage1[0], block.stage2[0], rows)
