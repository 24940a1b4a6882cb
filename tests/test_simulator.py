"""Trial-simulation contracts: generation, scheduling, adaptation, determinism."""

import functools
from dataclasses import replace

import numpy as np
import pytest

import smartrar.simulator
from smartrar import (
    CANONICAL_DESIGNS,
    ConfigurationError,
    DesignConfig,
    TrialSettings,
    UtilityTable,
    fixed_design_value,
    run_block,
    run_trial,
)
from smartrar.cli import main
from smartrar.core import TERMINAL_ROWS

from per_patient_reference import generate_patient, per_patient_trial
from test_acceptance import arm_value


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


PROSE_SCENARIO = (0.1, 0.3, 0.45, 0.5)
SETTINGS = TrialSettings()


def patient_utilities(result, table: UtilityTable | None = None) -> np.ndarray:
    """Each patient's realised utility: the table's entry at their terminal row."""
    table = table if table is not None else UtilityTable.default()
    return np.array(table.rows)[result.patient_rows]


class TestTrueValue:
    """The per-arm value oracle that the fixed-design checks compare with."""

    def test_placebo_arm(self):
        assert arm_value(PROSE_SCENARIO, 0) == pytest.approx(0.955)

    def test_prophylaxis_arm(self):
        assert arm_value(PROSE_SCENARIO, 1) == pytest.approx(0.85)

    def test_no_infection_is_unit_value(self):
        assert arm_value((0.0, 0.5, 0.9, 0.9), 0) == 1.0


def test_run_trial_and_fixed_design_value_check_their_cell():
    design = DesignConfig(myopic_m=0, adapt_c=0.0)
    assert fixed_design_value(PROSE_SCENARIO) == pytest.approx(0.5 * (0.955 + 0.85))
    for cell, message in [((0.1, 0.3, 0.45), r"\(scenarios, 4\)"), ((0.1, -0.3, 0.45, 0.5), "r1 must be")]:
        with pytest.raises(ValueError, match=message):
            run_trial(cell, design, SETTINGS, seed=0)
        with pytest.raises(ValueError, match=message):
            fixed_design_value(cell)


class TestGeneratePatient:
    def test_degenerate_no_infection(self):
        scenario = (0.0, 0.0, 0.5, 0.5)
        g = rng(1)
        for _ in range(50):
            _, y1, a2, _, utility = generate_patient(scenario, 0, lambda h: 0, g)
            assert y1 == 0
            assert a2 is None
            assert utility == 1.0

    def test_degenerate_certain_death(self):
        scenario = (1.0, 1.0, 1.0, 1.0)
        g = rng(2)
        for _ in range(50):
            _, y1, _, y2, utility = generate_patient(scenario, 1, lambda h: 1, g)
            assert y1 == 1
            assert y2 == 1
            assert utility == 0.0

    def test_provider_sees_dynamic_history(self):
        scenario = (1.0, 1.0, 0.5, 0.5)
        seen = []
        generate_patient(scenario, 1, lambda a1: seen.append(a1) or 0, rng(3))
        assert seen == [1]

    def test_empirical_infection_rate(self):
        g = rng(12345)
        n = 100_000
        hits = sum(
            generate_patient(PROSE_SCENARIO, 0, lambda h: 0, g)[1] for _ in range(n)
        )
        assert hits / n == pytest.approx(0.1, abs=0.005)

    def test_death_rate_ignores_stage2_action(self):
        # generative death probability depends on the stage-1 arm only
        scenario = (1.0, 1.0, 0.3, 0.8)
        g = rng(99)
        n = 40_000
        deaths = {0: [0, 0], 1: [0, 0]}  # a2 -> [count, total]
        for i in range(n):
            _, _, a2, y2, _ = generate_patient(scenario, 0, lambda h: i % 2, g)
            deaths[a2][0] += y2
            deaths[a2][1] += 1
        rate0 = deaths[0][0] / deaths[0][1]
        rate1 = deaths[1][0] / deaths[1][1]
        assert rate0 == pytest.approx(0.3, abs=0.02)
        assert rate1 == pytest.approx(0.3, abs=0.02)


class TestInterimSchedule:
    """Equal cohorts, with adaptation after every analysis but the last."""

    def test_from_design_defaults(self):
        design = DesignConfig(myopic_m=0, adapt_c=1.0)
        result = run_trial(PROSE_SCENARIO, design, SETTINGS, seed=2, keep_records=True)
        assert result.stage1.shape == (3, 2)
        assert result.stage2.shape == (3, 2, 2)
        assert len(result.patient_rows) == 2000

    def test_final_analysis_never_adapts(self):
        for interims in (2, 5):
            settings = TrialSettings(max_patients=500, num_interims=interims)
            result = run_trial(PROSE_SCENARIO, DesignConfig(myopic_m=1, adapt_c=1.0), settings, seed=4)
            assert len(result.stage1) == len(result.stage2) == interims - 1

    def test_single_cohort_design(self):
        settings = TrialSettings(max_patients=600, num_interims=1)
        result = run_trial(PROSE_SCENARIO, DesignConfig(myopic_m=0, adapt_c=0.0), settings, seed=0)
        assert result.stage1.shape == (0, 2)
        assert result.stage2.shape == (0, 2, 2)


class TestRunTrial:
    def test_patient_order_matches_a_permutation_per_cohort(self):
        # _patient_rows shuffles each cohort's slice of one repeated array
        # in place; the order must be the one that permuting each cohort's
        # rows on its own gives, for any cohort counts, empty rows and
        # empty cohorts included.
        counts = np.random.default_rng(31)
        for seed in range(40):
            cohorts = counts.integers(0, 6, size=(counts.integers(1, 6), len(TERMINAL_ROWS)))
            cohorts[counts.random(cohorts.shape) < 0.3] = 0
            cohorts[counts.random(len(cohorts)) < 0.2] = 0
            order = rng(seed)
            expected = np.concatenate(
                [order.permutation(np.repeat(np.arange(len(TERMINAL_ROWS)), n)) for n in cohorts]
            )
            got = smartrar.simulator._patient_rows(cohorts, rng(seed))
            assert got.dtype == expected.dtype
            assert got.tolist() == expected.tolist()

    def test_bit_for_bit_determinism(self):
        design = DesignConfig(myopic_m=0, adapt_c=1.0)
        a = run_trial(PROSE_SCENARIO, design, SETTINGS, seed=42, keep_records=True)
        b = run_trial(PROSE_SCENARIO, design, SETTINGS, seed=42, keep_records=True)
        assert a.mean_utility == b.mean_utility
        assert np.array_equal(a.patient_rows, b.patient_rows)
        assert np.array_equal(a.stage1, b.stage1)
        assert np.array_equal(a.stage2, b.stage2)

    def test_patient_conservation(self):
        design = DesignConfig(myopic_m=0, adapt_c=1.0)
        result = run_trial(PROSE_SCENARIO, design, SETTINGS, seed=5, keep_records=True)
        records = [TERMINAL_ROWS[row] for row in result.patient_rows.tolist()]
        assert len(records) == SETTINGS.max_patients
        infected = [r for r in records if r[1] == 1]
        assert all(r[2] is not None for r in infected)
        assert all(r[2] is None for r in records if r[1] == 0)

    def test_mean_utility_matches_records(self):
        design = DesignConfig(myopic_m=1, adapt_c=1.0)
        result = run_trial(PROSE_SCENARIO, design, SETTINGS, seed=8, keep_records=True)
        total = patient_utilities(result).sum()
        assert result.mean_utility == pytest.approx(total / SETTINGS.max_patients, abs=1e-12)

    def test_fixed_design_tracks_mixture_value(self):
        expected = 0.5 * (arm_value(PROSE_SCENARIO, 0) + arm_value(PROSE_SCENARIO, 1))
        for seed in (0, 1, 2):
            design = DesignConfig(myopic_m=0, adapt_c=0.0)
            result = run_trial(PROSE_SCENARIO, design, SETTINGS, seed=seed)
            assert result.mean_utility == pytest.approx(expected, abs=0.02)

    def test_fixed_design_snapshots_exactly_equal(self):
        for m in (0, 1):
            design = DesignConfig(myopic_m=m, adapt_c=0.0)
            result = run_trial(PROSE_SCENARIO, design, SETTINGS, seed=17)
            assert result.stage1.shape == (3, 2)
            assert result.stage2.shape == (3, 2, 2)
            assert (result.stage1 == 0.5).all()
            assert (result.stage2 == 0.5).all()

    def test_fixed_designs_coincide_at_equal_seed(self):
        # with c = 0 the myopic flag cannot influence outcomes, so the two
        # fixed designs generate identical trials from identical seeds
        dynamic = DesignConfig(myopic_m=0, adapt_c=0.0)
        myopic = DesignConfig(myopic_m=1, adapt_c=0.0)
        a = run_trial(PROSE_SCENARIO, dynamic, SETTINGS, seed=12, keep_records=True)
        b = run_trial(PROSE_SCENARIO, myopic, SETTINGS, seed=12, keep_records=True)
        assert a.mean_utility == b.mean_utility
        assert np.array_equal(a.patient_rows, b.patient_rows)

    def test_fixed_design_unbiased_over_seeds(self):
        # mean over 100 seeds within 3 standard errors of the mixture value
        scenario = (0.3, 0.6, 0.2, 0.7)
        expected = 0.5 * (arm_value(scenario, 0) + arm_value(scenario, 1))
        utilities = [
            run_trial(scenario, DesignConfig(myopic_m=0, adapt_c=0.0), SETTINGS, seed=seed).mean_utility
            for seed in range(100)
        ]
        mean = np.mean(utilities)
        se = np.std(utilities, ddof=1) / 10
        assert abs(mean - expected) < 3 * se + 1e-9

    def test_adaptive_dynamic_favours_better_arm(self):
        scenario = (0.5, 0.5, 0.05, 0.95)
        design = DesignConfig(myopic_m=0, adapt_c=1.0)
        result = run_trial(scenario, design, SETTINGS, seed=3)
        assert result.stage1[-1, 0] > 0.5

    def test_adaptive_myopic_blind_to_death_rates(self):
        # equal infection rates: myopic stage-1 allocation stays near 0.5
        scenario = (0.5, 0.5, 0.05, 0.95)
        design = DesignConfig(myopic_m=1, adapt_c=1.0)
        result = run_trial(scenario, design, SETTINGS, seed=3)
        assert result.stage1[-1, 0] == pytest.approx(0.5, abs=0.05)

    def test_myopic_snapshot_pools_stage2(self):
        design = DesignConfig(myopic_m=1, adapt_c=1.0)
        result = run_trial(PROSE_SCENARIO, design, SETTINGS, seed=9)
        # one pooled pair, held for both stage-one arms
        assert len(result.stage2) == 3
        assert np.array_equal(result.stage2[:, 0], result.stage2[:, 1])

    def test_dynamic_snapshot_has_both_histories(self):
        # one stage-two pair per stage-one arm, each fit to its own cells
        design = DesignConfig(myopic_m=0, adapt_c=1.0)
        scenario = (0.5, 0.5, 0.05, 0.95)
        settings = TrialSettings(utilities=UtilityTable.from_entries({"survived_a1_1_a2_1": 0.5}))
        result = run_trial(scenario, design, settings, seed=9)
        assert result.stage2.shape == (3, 2, 2)
        assert (result.stage2[:, 0] != result.stage2[:, 1]).any(axis=-1).all()

    def test_snapshot_probabilities_sum_to_one(self):
        design = DesignConfig(myopic_m=0, adapt_c=1.0)
        result = run_trial((0.8, 0.6, 0.9, 0.2), design, SETTINGS, seed=23)
        for pairs in (result.stage1, result.stage2):
            assert (abs(pairs.sum(axis=-1) - 1.0) <= 1e-12).all()

    def test_general_utility_table(self):
        # intermediate utilities flow into realized utility and u_bar
        table = UtilityTable.from_entries(
            {f"survived_a1_{a1}_a2_{a2}": 0.7 for a1 in (0, 1) for a2 in (0, 1)}
        )
        design = DesignConfig(myopic_m=0, adapt_c=0.0)
        settings = TrialSettings(utilities=table)
        result = run_trial((1.0, 1.0, 0.0, 0.0), design, settings, seed=4, keep_records=True)
        assert result.mean_utility == pytest.approx(0.7)
        assert (patient_utilities(result, table) == 0.7).all()

    def test_mcmc_engine_trial(self):
        design = DesignConfig(myopic_m=0, adapt_c=1.0)
        settings = TrialSettings(max_patients=400, num_interims=4, engine="mcmc")
        a = run_trial(PROSE_SCENARIO, design, settings, seed=31)
        b = run_trial(PROSE_SCENARIO, design, settings, seed=31)
        assert a.mean_utility == b.mean_utility
        assert np.array_equal(a.stage1, b.stage1)
        assert np.array_equal(a.stage2, b.stage2)
        assert len(a.stage1) == 3

    def test_engines_agree_on_direction(self):
        scenario = (0.5, 0.5, 0.05, 0.95)
        design = DesignConfig(myopic_m=0, adapt_c=1.0)
        conjugate = run_trial(scenario, design, TrialSettings(engine="conjugate"), seed=3)
        mcmc = run_trial(
            scenario, design, TrialSettings(max_patients=400, num_interims=4, engine="mcmc"), seed=3
        )
        assert conjugate.stage1[-1, 0] > 0.5
        assert mcmc.stage1[-1, 0] > 0.5

    def test_records_are_a_pure_observer(self):
        scenario = (0.6, 0.4, 0.3, 0.7)
        for m in (0, 1):
            for c in (0.0, 1.0):
                design = DesignConfig(myopic_m=m, adapt_c=c)
                plain = run_trial(scenario, design, SETTINGS, seed=101)
                observed = run_trial(scenario, design, SETTINGS, seed=101, keep_records=True)
                assert plain.patient_rows is None
                assert observed.mean_utility == plain.mean_utility
                assert np.array_equal(observed.stage1, plain.stage1)
                assert np.array_equal(observed.stage2, plain.stage2)
                total = patient_utilities(observed).sum()
                assert total / SETTINGS.max_patients == pytest.approx(plain.mean_utility, abs=1e-12)

    def test_ambiguous_pooled_utilities_rejected_before_any_draw(self):
        # one cohort, so no interim analysis ever reads the pooled cell
        table = UtilityTable.from_entries({"survived_a1_1_a2_1": 0.7})
        settings = TrialSettings(max_patients=100, num_interims=1, utilities=table)
        design = DesignConfig(myopic_m=1, adapt_c=1.0)
        with pytest.raises(ConfigurationError, match="ambiguous"):
            run_trial(PROSE_SCENARIO, design, settings, seed=0)
        assert run_trial(PROSE_SCENARIO, replace(design, myopic_m=0), settings, seed=0)


@pytest.fixture
def logistic_calls(monkeypatch):
    """The (rows, cells) shape of every ``logistic_mean`` call the simulator makes."""
    calls = []
    fit = smartrar.simulator.logistic_mean

    def recorded(prior, events, trials):
        calls.append(np.shape(events))
        return fit(prior, events, trials)

    monkeypatch.setattr(smartrar.simulator, "logistic_mean", recorded)
    return calls


class TestLogisticFitsOnlyAdaptingRows:
    """The logistic model is fitted only for c != 0 trials, whose allocation
    reads it: per adapting analysis at most one two-cell call (stage one and
    pooled stage two) and one four-cell call (dynamic stage two), never one
    with zero rows."""

    @pytest.mark.parametrize("m", [0, 1])
    def test_fixed_simulate_makes_no_fit(self, logistic_calls, capsys, m):
        argv = ["simulate", "--engine", "mcmc", "--m", str(m), "--c", "0", "--r0", "0.5", "--r1", "0.45"]
        assert main(argv) == 0
        assert logistic_calls == []

    @pytest.mark.parametrize("which", ["all", "myopic", "dynamic", "fixed"])
    def test_block_fits_adapting_rows_only(self, logistic_calls, which):
        designs = {
            "all": CANONICAL_DESIGNS,
            "myopic": [d for d in CANONICAL_DESIGNS if d.myopic_m],
            "dynamic": [d for d in CANONICAL_DESIGNS if not d.myopic_m],
            "fixed": [d for d in CANONICAL_DESIGNS if d.adapt_c == 0],
        }[which]
        replicates = 3
        settings = TrialSettings(engine="mcmc")
        block = run_block([(0.5, 0.45, 0.05, 0.95)], [rng(4)], designs, replicates, settings)
        adapting = replicates * sum(d.adapt_c != 0 for d in designs)
        pooled = replicates * sum(d.adapt_c != 0 and d.myopic_m for d in designs)
        calls = ((adapting + pooled, 2), (adapting - pooled, 4))
        per_analysis = [(rows, cells) for rows, cells in calls if rows]
        assert logistic_calls == per_analysis * (settings.num_interims - 1)
        fixed = np.repeat([d.adapt_c == 0 for d in designs], replicates)
        assert fixed.any()
        assert (block.stage1[fixed] == 0.5).all()
        assert (block.stage2[fixed] == 0.5).all()

    @pytest.mark.parametrize("which", ["all", "fixed"])
    @pytest.mark.parametrize("engine", ["conjugate", "mcmc"])
    def test_analyses_read_adapting_rows_only(self, monkeypatch, engine, which):
        """Under either engine, each analysis but the last passes
        ``_posterior_means`` the cumulative counts of exactly the c != 0
        trials, a block of c = 0 trials makes no call, and the c = 0
        trials allocate exactly 1/2 throughout."""
        calls = []
        analyse = smartrar.simulator._posterior_means

        def recorded(settings, stats, myopic):
            calls.append([a.copy() for a in (*stats, myopic)])
            return analyse(settings, stats, myopic)

        monkeypatch.setattr(smartrar.simulator, "_posterior_means", recorded)
        designs = [d for d in CANONICAL_DESIGNS if which == "all" or d.adapt_c == 0]
        cells, replicates, settings = [(0.5, 0.45, 0.05, 0.95), PROSE_SCENARIO], 3, TrialSettings(engine=engine)
        block = run_block(cells, [rng(4), rng(5)], designs, replicates, settings)
        m, c = np.tile(np.repeat([(d.myopic_m, d.adapt_c) for d in designs], replicates, axis=0), (2, 1)).T
        adapting, expected = c != 0, []
        for k in range(settings.num_interims - 1 if adapting.any() else 0):
            counts = block.cohorts[adapting, : k + 1].sum(axis=1)
            expected.append([*smartrar.simulator._sufficient_stats(counts, m[adapting]), m[adapting]])
        assert len(calls) == len(expected)
        for got, want in zip(calls, expected):
            for a, b in zip(got, want, strict=True):
                np.testing.assert_array_equal(a, b)
        assert (block.stage1[~adapting] == 0.5).all()
        assert (block.stage2[~adapting] == 0.5).all()


# A dynamic-only table and one whose stage-two rows pool over a1.
TABLE_DYNAMIC = UtilityTable.from_entries(
    {
        "uninfected_a1_1": 0.8,
        "survived_a1_0_a2_1": 0.9,
        "died_a1_0_a2_1": 0.2,
        "survived_a1_1_a2_0": 0.6,
    }
)
TABLE_POOLED = UtilityTable.from_entries(
    {
        "uninfected_a1_0": 0.95,
        "survived_a1_0_a2_1": 0.9,
        "survived_a1_1_a2_1": 0.9,
        "died_a1_0_a2_0": 0.1,
        "died_a1_1_a2_0": 0.1,
    }
)

PARITY_CASES = tuple(
    (scenario, DesignConfig(myopic_m=m, adapt_c=c), TrialSettings(utilities=table))
    for scenario, m, c, table in (
        ((0.0, 0.5, 0.3, 0.6), 0, 1.0, UtilityTable.default()),
        ((1.0, 1.0, 0.2, 0.7), 1, 1.0, UtilityTable.default()),
        ((1.0, 0.5, 0.05, 0.95), 0, 0.5, UtilityTable.default()),
        ((0.5, 0.45, 0.05, 0.95), 1, 1.0, UtilityTable.default()),
        ((0.3, 0.6, 0.2, 0.7), 0, 1.0, TABLE_DYNAMIC),
        ((0.8, 0.6, 0.9, 0.2), 1, 0.5, TABLE_POOLED),
    )
)

PARITY_REPLICATES = 400
PARITY_Z = 4.0


def _mean_and_var_se(x: np.ndarray) -> tuple[float, float, float, float]:
    """Mean, its SE, sample variance and its SE (from the fourth central moment)."""
    n = x.size
    var = float(np.var(x, ddof=1))
    m4 = float(np.mean((x - x.mean()) ** 4))
    return float(x.mean()), (var / n) ** 0.5, var, (max(m4 - var**2, 0.0) / n) ** 0.5


def _z(a: float, se_a: float, b: float, se_b: float) -> float:
    se = (se_a**2 + se_b**2) ** 0.5
    if se == 0.0:
        return 0.0 if a == b else float("inf")
    return (a - b) / se


def _lattice_seed(*coordinates: int) -> int:
    return int(np.random.SeedSequence(coordinates).generate_state(1, np.uint64)[0])


@functools.lru_cache(maxsize=None)
def _reference_samples(case: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean utility and final stage-one P(arm 1) of 400 per-patient
    reference trials of one parity case."""
    scenario, design, settings = PARITY_CASES[case]
    trials = [
        per_patient_trial(scenario, design, settings, seed=_lattice_seed(7, case, 1, rep))
        for rep in range(PARITY_REPLICATES)
    ]
    return (
        np.array([t.mean_utility for t in trials]),
        np.array([t.stage1[-1, 1] for t in trials]),
    )


def _parity_z(u_count, p_count, u_ref, p_ref) -> dict[str, float]:
    """z of the mean utility, its variance and the mean final stage-one
    allocation, count-level against reference."""
    mean_c, mean_se_c, var_c, var_se_c = _mean_and_var_se(u_count)
    mean_r, mean_se_r, var_r, var_se_r = _mean_and_var_se(u_ref)
    _, p_se_c, _, _ = _mean_and_var_se(p_count)
    _, p_se_r, _, _ = _mean_and_var_se(p_ref)
    return {
        "mean utility": _z(mean_c, mean_se_c, mean_r, mean_se_r),
        "utility variance": _z(var_c, var_se_c, var_r, var_se_r),
        "final stage-one P(arm 1)": _z(p_count.mean(), p_se_c, p_ref.mean(), p_se_r),
    }


class TestCountLevelParity:
    """Count-level trials against the per-patient reference sampler.

    Per case, 400 trials of each on disjoint seeds; the mean
    ``mean_utility``, its variance and the mean final stage-one allocation
    must agree within 4 SE. The cases cover r = 0 and r = 1, c = 0.5,
    both myopic flags and two non-default tables.
    Two subjects: ``run_trial`` one trial at a time, and mixed
    ``run_block`` calls, one per table, holding every case with that table.
    """

    @pytest.mark.parametrize("case", range(len(PARITY_CASES)))
    def test_distribution_matches_reference(self, case):
        scenario, design, settings = PARITY_CASES[case]
        trials = [
            run_trial(scenario, design, settings, seed=_lattice_seed(7, case, 0, rep))
            for rep in range(PARITY_REPLICATES)
        ]
        z = _parity_z(
            np.array([t.mean_utility for t in trials]),
            np.array([t.stage1[-1, 1] for t in trials]),
            *_reference_samples(case),
        )
        assert all(abs(v) <= PARITY_Z for v in z.values()), z

    def test_mixed_block_matches_reference(self):
        # One block per settings: its cases' scenarios crossed with their
        # designs, so several scenarios and both myopic flags share a block.
        # Each case reads its own (scenario, design) cell.
        utilities, final_p1 = {}, {}
        for settings in dict.fromkeys(settings for _, _, settings in PARITY_CASES):
            cases = [case for case, (_, _, s) in enumerate(PARITY_CASES) if s == settings]
            designs = list(dict.fromkeys(PARITY_CASES[case][1] for case in cases))
            cells = [PARITY_CASES[case][0] for case in cases]
            rngs = [np.random.Generator(np.random.Philox(np.random.SeedSequence((7, case, 2)))) for case in cases]
            block = run_block(cells, rngs, designs, PARITY_REPLICATES, settings)
            shape = (len(cases), len(designs), PARITY_REPLICATES)
            u_bars, p1 = block.mean_utility.reshape(shape), block.stage1[:, -1, 1].reshape(shape)
            for row, case in enumerate(cases):
                column = designs.index(PARITY_CASES[case][1])
                utilities[case], final_p1[case] = u_bars[row, column], p1[row, column]
        assert len(utilities) == len(PARITY_CASES)
        failed = {}
        for case in range(len(PARITY_CASES)):
            z = _parity_z(utilities[case], final_p1[case], *_reference_samples(case))
            if any(abs(v) > PARITY_Z for v in z.values()):
                failed[case] = z
        assert not failed, failed
