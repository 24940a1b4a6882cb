"""Posterior-engine contracts: conjugate means, count tallies, the logistic
engine, and the MCMC reference sampler that it is checked against."""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcmc_reference import posterior_mcmc, split_chain_rhat
from smartrar import PriorSpec, conjugate_mean, logistic_mean
from smartrar.inference import _NODES, _ROWS_PER_PASS, _design_matrix
from smartrar.simulator import _sufficient_stats


class TestCellCounts:
    def test_events_bounded_by_trials(self, prior):
        # cell counts are checked where they enter the MCMC reference
        posterior_mcmc([3, 0], [3, 0], prior, warmup=10, sampling=10)
        with pytest.raises(ValueError):
            posterior_mcmc([4, 0], [3, 0], prior)
        with pytest.raises(ValueError):
            posterior_mcmc([-1, 0], [3, 0], prior)


class TestConjugate:
    def test_prior_mean_with_no_data(self, prior):
        assert conjugate_mean(prior, 0, 0) == 0.5

    def test_closed_form_mean(self, prior):
        assert conjugate_mean(prior, 10, 40) == pytest.approx(11 / 42, abs=1e-15)

    def test_boundary_heavy_data(self, prior):
        assert conjugate_mean(prior, 40, 40) == pytest.approx(41 / 42, abs=1e-15)

    @given(events=st.integers(0, 500), trials=st.integers(0, 500))
    def test_event_monotonicity(self, events, trials):
        trials = max(events, trials)
        prior = PriorSpec()
        base = conjugate_mean(prior, events, trials)
        assert conjugate_mean(prior, events + 1, trials + 1) > base
        assert conjugate_mean(prior, events, trials + 1) < base

    def test_custom_prior(self):
        prior = PriorSpec(conjugate_alpha=2.0, conjugate_beta=8.0)
        assert conjugate_mean(prior, 0, 0) == pytest.approx(0.2)


class TestLinearPredictor:
    """The linear predictor is the design matrix times the coefficients."""

    def test_stage1_zero_coefficients(self):
        assert np.all(_design_matrix(2) @ np.zeros(2) == 0.0)

    def test_stage2_dynamic_full_interaction(self):
        # cell (a1, a2) = (1, 1) sits at flat index 3
        eta = _design_matrix(4) @ np.array([-1.0, 0.5, 0.25, -0.75])
        assert eta[3] == pytest.approx(-1.0)

    def test_stage2_myopic_intercept_only(self):
        eta = _design_matrix(2) @ np.array([-1.0, 0.5])
        assert eta[0] == pytest.approx(-1.0)

    def test_shape_mismatch_rejected(self, prior):
        with pytest.raises(ValueError):
            posterior_mcmc([0, 0, 0], [1, 1, 1], prior)
        with pytest.raises(ValueError):
            posterior_mcmc([0, 0], [1, 1, 1, 1], prior)

    def test_vector_length_validated(self):
        with pytest.raises(ValueError):
            _design_matrix(3)
        with pytest.raises(ValueError):
            logistic_mean(PriorSpec(), np.zeros((1, 3)), np.ones((1, 3)))


def _row_counts(records) -> np.ndarray:
    """Terminal-row counts (1, 10) in ``UTILITY_ROW_KEYS`` order from (a1, y1, a2, y2)."""
    counts = np.zeros((1, 10), dtype=np.int64)
    for a1, y1, a2, y2 in records:
        counts[0, 2 + 4 * a1 + 2 * a2 + y2 if y1 else a1] += 1
    return counts


RECORDS = [(0, 1, 1, 0), (0, 0, None, None), (1, 1, 1, 1)]


class TestAccumulate:
    def test_empty_records(self):
        for m in (0, 1):
            events1, trials1, events2, trials2 = _sufficient_stats(_row_counts([]), m)
            assert events1.tolist() == trials1.tolist() == [[0, 0]]
            assert events2.tolist() == trials2.tolist() == [[0] * 4]

    def test_hand_counted_dynamic(self):
        events1, trials1, events2, trials2 = _sufficient_stats(_row_counts(RECORDS), 0)
        assert (events1.tolist(), trials1.tolist()) == ([[1, 1]], [[2, 1]])
        assert (events2.tolist(), trials2.tolist()) == ([[0, 0, 0, 1]], [[0, 1, 0, 1]])

    def test_hand_counted_pooled(self):
        # pooled by a2, held in both a1 cells
        _, _, events2, trials2 = _sufficient_stats(_row_counts(RECORDS), 1)
        assert (events2.tolist(), trials2.tolist()) == ([[0, 1, 0, 1]], [[0, 2, 0, 2]])

    def test_flag_per_trial(self):
        counts = np.concatenate([_row_counts(RECORDS)] * 2)
        _, _, events2, trials2 = _sufficient_stats(counts, np.array([0, 1]))
        assert events2.tolist() == [[0, 0, 0, 1], [0, 1, 0, 1]]
        assert trials2.tolist() == [[0, 1, 0, 1], [0, 2, 0, 2]]

    def test_stage2_trials_equal_infections(self):
        events1, _, _, trials2 = _sufficient_stats(_row_counts(RECORDS), 0)
        assert trials2.sum() == events1.sum()

    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)
            ),
            max_size=60,
        )
    )
    def test_pooling_consistency(self, data):
        counts = _row_counts(data)
        _, _, events2, trials2 = _sufficient_stats(counts, 0)
        _, _, pooled_events, pooled_trials = _sufficient_stats(counts, 1)
        for a1 in (0, 1):
            for a2 in (0, 1):
                assert pooled_events[0, 2 * a1 + a2] == events2[0, a2] + events2[0, 2 + a2]
                assert pooled_trials[0, 2 * a1 + a2] == trials2[0, a2] + trials2[0, 2 + a2]


class TestMcmc:
    def test_seeded_determinism(self, prior):
        a = posterior_mcmc([50, 50], [200, 200], prior, seed=99)
        b = posterior_mcmc([50, 50], [200, 200], prior, seed=99)
        for key in a.cells:
            assert np.array_equal(a.cells[key].draws, b.cells[key].draws)
        different = posterior_mcmc([50, 50], [200, 200], prior, seed=100)
        assert any(
            not np.array_equal(a.cells[k].draws, different.cells[k].draws) for k in a.cells
        )

    def test_draw_count_and_tag(self, prior):
        res = posterior_mcmc([5, 2], [20, 20], prior, chains=4, warmup=200, sampling=250, seed=0)
        assert list(res.cells) == [0, 1]
        for summary in res.cells.values():
            assert len(summary.draws) == 4 * 250

    def test_large_sample_agreement_with_conjugate(self, prior):
        res = posterior_mcmc([50, 50], [200, 200], prior, seed=7)
        oracle = conjugate_mean(prior, 50, 200)
        for summary in res.cells.values():
            assert abs(summary.mean_event_prob - oracle) < 0.03
            assert abs(summary.mean_event_prob - 0.25) < 0.03

    def test_empty_data_returns_prior_pushforward(self, prior):
        res = posterior_mcmc([0, 0], [0, 0], prior, seed=3)
        # inverse-logit of Normal(0, 2.5) is symmetric about 0.5
        for summary in res.cells.values():
            assert abs(summary.mean_event_prob - 0.5) < 0.03

    def test_rhat_reported_and_small(self, prior):
        res = posterior_mcmc([80, 40], [300, 300], prior, seed=11)
        assert len(res.rhat) == 2
        assert max(res.rhat) <= 1.05
        assert res.warnings == ()

    def test_dynamic_stage2_model(self, prior):
        events = [10 + 5 * a1 + 3 * a2 for a1 in (0, 1) for a2 in (0, 1)]
        res = posterior_mcmc(events, [60] * 4, prior, seed=21)
        assert len(res.rhat) == 4
        assert len(res.cells) == 4

    def test_invalid_iteration_counts(self, prior):
        with pytest.raises(ValueError):
            posterior_mcmc([0, 0], [0, 0], prior, chains=0)
        with pytest.raises(ValueError):
            posterior_mcmc([0, 0], [0, 0], prior, sampling=0)


class TestSplitChainRhat:
    def test_identical_chains_give_one(self):
        rng = np.random.default_rng(0)
        draws = rng.normal(size=(1, 1000, 2))
        chains = np.concatenate([draws, draws, draws, draws], axis=0)
        rhat = split_chain_rhat(chains)
        assert np.all(rhat < 1.01)

    def test_diverged_chains_flagged(self):
        rng = np.random.default_rng(0)
        chains = rng.normal(size=(4, 500, 1))
        chains[0] += 10.0
        assert split_chain_rhat(chains)[0] > 1.5


class TestPosteriorSummary:
    def test_mean_must_match_draws(self, prior):
        res = posterior_mcmc([30, 5, 12, 0], [60, 60, 40, 10], prior, seed=5)
        for summary in res.cells.values():
            assert summary.mean_event_prob == pytest.approx(np.mean(summary.draws), abs=1e-12)

    def test_open_interval(self, prior):
        # both engines keep every mean strictly inside (0, 1)
        assert 0.0 < conjugate_mean(prior, 0, 10_000) < conjugate_mean(prior, 10_000, 10_000) < 1.0
        res = posterior_mcmc([0, 500], [500, 500], prior, seed=6)
        assert all(0.0 < s.mean_event_prob < 1.0 for s in res.cells.values())


class TestLogisticMean:
    @pytest.mark.parametrize("cells", [2, 4])
    def test_empty_data_is_one_half(self, prior, cells):
        # the product rule is symmetric about the prior mean 0
        means = logistic_mean(prior, np.zeros((3, cells)), np.zeros((3, cells)))
        assert np.all(np.abs(means - 0.5) <= 1e-12)

    @pytest.mark.parametrize("cells", [2, 4])
    def test_rows_do_not_depend_on_their_batch(self, prior, cells):
        rng = np.random.default_rng(5)
        trials = rng.integers(0, 600, size=(40, cells))
        trials[:5] = 0
        events = rng.integers(0, trials + 1)
        events[5:10] = trials[5:10]
        together = logistic_mean(prior, events, trials)
        for start, stop in ((0, 1), (3, 17), (39, 40)):
            alone = logistic_mean(prior, events[start:stop], trials[start:stop])
            assert alone.tobytes() == together[start:stop].tobytes()

    # sha256 of logistic_mean(...).tobytes() for each (prior, cells) batch of
    # _pinned_batch; any change to the floating-point operations of a fit,
    # or to their order, moves these.
    PINNED_KERNEL = {
        (0.0, 2.5, 2): "26ee22ae857f698a10f4baaec84a83b5ca67e4a7a5b172eee351bf90260dae41",
        (0.0, 2.5, 4): "ffd48d50e6beb1fdc181d7b1f76495511cde37b910cd8df33a386ebc87d88ba3",
        (0.3, 1.5, 2): "497b2760d210aafc78411da41fe512947b0ffaf832664d7b91fa6543aaeafaa6",
        (0.3, 1.5, 4): "c08166d32db2b6c24624ce829d09ff068060843cdbe7e48540f6d2c252ae638a",
        (-0.4, 2.0, 2): "c85acb16eee331221846b428389331b28dfa2766f854d7ec46b571dee623b7e8",
        (-0.4, 2.0, 4): "d1eb29e84a4407c5a279f51ccab2c59b3de3a2f1f051b3c20a4114f20f0ae5ca",
    }

    @staticmethod
    def _pinned_batch(cells: int):
        """37 seeded rows, so that a batch spans several integration passes:
        three with no trials, six with one zero-trial cell, five whose
        events equal their trials, and the rest at random."""
        rng = np.random.default_rng({2: 11, 4: 12}[cells])
        trials = rng.integers(0, 400, size=(37, cells))
        trials[:3] = 0
        trials[3:9, rng.integers(cells)] = 0
        events = rng.integers(0, trials + 1)
        events[9:14] = trials[9:14]
        return events, trials

    @pytest.mark.parametrize("cells", [2, 4])
    @pytest.mark.parametrize("mean, sd", [(0.0, 2.5), (0.3, 1.5), (-0.4, 2.0)])
    def test_pinned_bits(self, mean, sd, cells):
        prior = PriorSpec(coefficient_prior_mean=mean, coefficient_prior_sd=sd)
        means = logistic_mean(prior, *self._pinned_batch(cells))
        assert hashlib.sha256(means.tobytes()).hexdigest() == self.PINNED_KERNEL[mean, sd, cells]

    def test_newton_cycle_raises(self):
        # Under this prior, full Newton steps on this four-cell row overshoot
        # and then alternate between two points far from the mode; the fit
        # must fail rather than integrate about a point that is not the mode.
        # The first overshoot overflows exp, which tier-1 turns into an error.
        prior = PriorSpec(coefficient_prior_mean=-1.0, coefficient_prior_sd=0.7)
        events, trials = np.array([[743, 1442, 1399, 1317]]), np.array([[839, 1643, 1470, 1946]])
        named = r"1 of 1 rows .*coefficient_prior_mean=-1\.0"
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=named):
            logistic_mean(prior, events, trials)
        # Rows that converge in the same batch do not hide the one that does not.
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="1 of 3 rows"):
            logistic_mean(
                prior, np.vstack([[3, 4, 2, 5], events, [0] * 4]), np.vstack([[10] * 4, trials, [0] * 4])
            )

    @pytest.mark.skipif(sys.platform != "linux", reason="reads minor page faults from Linux getrusage")
    def test_work_arrays_fault_in_once_per_call(self, prior):
        import resource

        rng = np.random.default_rng(3)
        trials = rng.integers(0, 600, size=(200, 4))
        events = rng.integers(0, trials + 1)
        logistic_mean(prior, events, trials)  # the first call's caches and heap growth
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        logistic_mean(prior, events, trials)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        # A pass over _ROWS_PER_PASS four-cell rows works in four (rows, 4,
        # nodes) float64 arrays (coefficients, linear predictor, log
        # probability, temporary) and two (rows, nodes) ones (log posterior,
        # prior penalty): 2.8 MB, 675 4-KB pages. Made once per call, they
        # fault in at most once per call, and the Newton arrays of 200 rows
        # are under 0.1 MB each, so a call adds fewer than twice their pages.
        # Arrays made afresh on each of the 25 passes of 200 rows are freed
        # back to the system and fault in again every pass: a kernel that
        # did so took about 32,000 faults for this call on x86-64 Linux.
        work_bytes = 8 * _ROWS_PER_PASS * _NODES**4 * (4 * 4 + 2)
        assert faults < 2 * work_bytes / resource.getpagesize()

    def test_open_interval_and_ordering(self, prior):
        means = logistic_mean(prior, np.array([[0, 500], [50, 50]]), np.array([[500, 500], [200, 200]]))
        assert np.all((0.0 < means) & (means < 1.0))
        assert means[0, 0] < means[1, 0] < means[0, 1]
