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


# The per-trial arithmetic of a block runs on arrays laid out trial-last,
# (quantity, trials), so that every numpy call loops over the trials
# contiguously instead of over pairs. Each element still takes the same
# operations in the same order, so the results keep their bits.

#: Equal allocation at both stages, trial-last: every first cohort, and any
#: c = 0 design.
_HALF1, _HALF2 = np.full((2, 1), 0.5), np.full((2, 2, 1), 0.5)


def _outcome_rates(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constants of ``_cohort_probs`` for ``cells`` (trials, 4), made
    once per block: r and 1 - r (2, trials) by a1, and (1 - s, s)
    (2, 1, 2, trials) by a1 and outcome."""
    r, s = np.ascontiguousarray(cells[:, :2].T), cells[:, 2:].T
    return r, 1.0 - r, np.array([1.0 - s, s]).transpose(1, 0, 2)[:, None]


def _cohort_probs(rates, p1: np.ndarray = _HALF1, p2: np.ndarray = _HALF2) -> np.ndarray:
    """pi (10, trials) over the terminal rows from the trials'
    ``_outcome_rates`` and the allocation in force: ``p1[a1, t]`` is
    P(stage-one arm a1) and ``p2[a1, a2, t]`` P(stage-two arm a2 | a1),
    equal at both stages by default."""
    r, uninfected, outcome = rates
    infected = (p1 * r)[:, None] * p2
    pi = np.empty((len(TERMINAL_ROWS), r.shape[1]))
    pi[:2] = p1 * uninfected
    pi[2:] = (infected[:, :, None] * outcome).reshape(8, -1)
    return pi


def fixed_design_value(cell, table: UtilityTable | None = None) -> float:
    """Expected per-patient utility of the scenario ``cell`` (r0, r1, s0, s1)
    under equal allocation at both stages (any c = 0 design): the
    terminal-row probabilities at (1/2, 1/2) dotted with the row utilities."""
    table = table if table is not None else UtilityTable.default()
    return float(_cohort_probs(_outcome_rates(check_cells([cell])))[:, 0] @ table.rows)


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

#: The dynamic and the pooled map stacked and transposed (24, 10), so that
#: one product gives both tables trial-last. ``_STATS_MAP @ _POOL_MAP`` is
#: 0/1 too: each pooled column adds two columns with disjoint rows.
_STATS_MAPS = np.concatenate([_STATS_MAP, _STATS_MAP @ _POOL_MAP], axis=1).T.copy()


def _sufficient_stats(counts: np.ndarray, myopic_m) -> np.ndarray:
    """The sufficient statistics (trials, 12) from cumulative row counts
    (trials, 10): a product of the counts with the dynamic map, whose
    integer-valued columns hold events1 (2), events2 (4), trials1 (2) and
    trials2 (4) in that order. The table is stored trial-last (its
    transpose is C-contiguous).

    Stage one is indexed by a1. Stage two is flat over the cells (a1, a2)
    at index 2 a1 + a2, whose survived and died rows are counts[:, 2 + 2 j]
    and counts[:, 3 + 2 j]. In a myopic trial (``myopic_m`` broadcasts
    over the trials) both a1 cells of an a2 hold its counts pooled over a1,
    the sum of its two dynamic cells (``_POOL_MAP``).
    """
    both = _STATS_MAPS @ counts.T
    return np.where(np.asarray(myopic_m, dtype=bool), both[12:], both[:12]).T


#: The utility rows weighted by 1 - E[pi] in Q1 by a1, then Q2 by cell: the
#: uninfected rows, then each cell's survived row.
_FIRST_TERMS = [0, 1, 2, 4, 6, 8]


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
    over posterior draws would give the same number. The result is stored
    trial-last (its transpose is C-contiguous).
    """
    means, u = np.concatenate([mean1.T, mean2.T]), utility.T
    q = u[_FIRST_TERMS] * (1.0 - means)
    q[2:] += u[3::2] * means[2:]
    best2 = np.maximum(q[2::2], q[3::2])
    q[:2] += np.where(np.asarray(myopic_m, dtype=bool), 0.0, best2) * means[:2]
    return q.T


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
    prior = settings.prior_spec
    if settings.engine == "conjugate":
        means = conjugate_mean(prior, table[:, :6], table[:, 6:])
        return means[:, :2], means[:, 2:]
    # The logistic kernel's sums depend on its inputs' memory layout: give
    # it C-contiguous counts.
    table = np.ascontiguousarray(table)
    events, trials, pooled, n = table[:, :6], table[:, 6:], myopic != 0, len(table)
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
    # One row of utilities, which broadcasts over the trials. Q is stored
    # trial-last; its (trials, 3, 2) view keeps that layout.
    q = _q_values(*means, np.array([settings.utilities.rows]), myopic).T.reshape(3, 2, -1).transpose(2, 0, 1)
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
    per_scenario, num_interims, rows = len(designs) * replicates, settings.num_interims, len(TERMINAL_ROWS)
    design_rows = np.repeat([(d.myopic_m, d.adapt_c) for d in designs], replicates, axis=0)
    design_rows = np.tile(design_rows, (len(rngs), 1))
    adapting = np.flatnonzero(design_rows[:, 1] != 0.0)
    myopic, adapt_c = design_rows[adapting, 0] != 0.0, design_rows[adapting, 1]
    rates = _outcome_rates(cells[adapting // per_scenario])
    n = len(design_rows)
    # Each stream's rows of pvals, which start at its scenario's equal
    # allocation; pi is the same memory, one row per trial.
    pvals = np.empty((len(rngs), per_scenario, rows))
    pvals[:] = _cohort_probs(_outcome_rates(cells)).T[:, None]
    pi = pvals.reshape(n, rows)
    # The allocations of the adapting trials after each analysis, trial-last:
    # the stage-one pair, then the stage-two pair of each a1.
    allocations = np.empty((num_interims - 1, 3, 2, len(adapting)))
    # Each cohort's row counts, then their running total, in one int64 array
    # (exact integers): the block's largest allocation, about half its peak
    # memory, so that the C heap keeps the pages it freed between blocks
    # instead of returning them and faulting them in again.
    counts = np.empty((num_interims + 1, n, rows), dtype=np.int64)
    cohorts, total = counts[:-1], counts[-1]
    total[:] = 0
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
        total += np.concatenate(draws, out=cohorts[k])
        del draws  # before the analysis, which needs memory of its own
        # Allocation adapts after every analysis but the last, where c != 0.
        if k == num_interims - 1 or not len(adapting):
            continue
        p1, p2 = _policy_step(settings, total[adapting], myopic, adapt_c)
        p = allocations[k]
        p[0], p[1:] = p1.T, p2.transpose(1, 2, 0)
        pi[adapting] = _cohort_probs(rates, p[0], p[1:]).T

    stage1, stage2 = np.full((n, num_interims - 1, 2), 0.5), np.full((n, num_interims - 1, 2, 2), 0.5)
    stage1[adapting] = allocations[:, 0].transpose(2, 0, 1)
    stage2[adapting] = allocations[:, 1:].transpose(3, 0, 1, 2)
    mean_utility = _utility_totals(total, settings.utilities.rows, settings.max_patients) / settings.max_patients
    return Block(mean_utility, stage1, stage2, cohorts.transpose(1, 0, 2))


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
    return _run_checked_trial(check_cells([cell]), design, settings, seed, keep_records)


def _run_checked_trial(
    cells: np.ndarray, design: DesignConfig, settings: TrialSettings, seed: int, keep_records: bool
) -> TrialResult:
    """``run_trial`` of the one row of ``cells`` (as ``check_cells`` returns
    it), unvalidated: the seed and the pooling are taken as checked."""
    # Substreams 0 (cohort counts) and 2 (patient order) of the trial
    # seed, each made only when it is used. Substream 1 is unused; patients
    # stay on 2 so that their bytes match earlier versions' output.
    rng = np.random.Generator(np.random.Philox(_substream(seed, 0)))
    block = run_block(cells, [rng], (design,), 1, settings)
    rows = None
    if keep_records:
        rows = _patient_rows(block.cohorts[0], np.random.Generator(np.random.Philox(_substream(seed, 2))))
    return TrialResult(float(block.mean_utility[0]), block.stage1[0], block.stage2[0], rows)
