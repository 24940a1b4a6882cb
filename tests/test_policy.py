"""The Q-value formulas of ``_q_values``, the simulator's means -> Q ->
allocation glue, and the enumeration oracle that c4 compares them against."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import smartrar.simulator
from smartrar import TrialSettings, UtilityTable
from smartrar.simulator import _policy_step, _q_values

from test_acceptance import enumerated_stage1_values

probs = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)
utilities = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)

# Stage-two means at flat index 2 a1 + a2: survival after arm 0 is likely,
# after arm 1 unlikely.
SPLIT_DEATH = (0.05, 0.05, 0.95, 0.95)


def random_table(draw_values: list[float]) -> UtilityTable:
    keys = list(UtilityTable.default().entries())
    return UtilityTable.from_entries(dict(zip(keys, draw_values)))


def row_utility(table: UtilityTable) -> np.ndarray:
    """One trial's row utilities, in the layout ``run_block`` uses."""
    return np.array([table.rows])


def allocate(mean1, mean2, table: UtilityTable, m: int, c: float = 1.0):
    """``_policy_step`` for one trial with flag m whose posterior means are
    the given ones: the stage-one pair and the stage-two pairs as
    ``run_trial`` reports them (one per a1, or the pooled pair once). A
    myopic trial's pooled means are the first two stage-two means, held in
    both a1 cells as ``_sufficient_stats`` does."""
    if m:
        mean2 = mean2[:2] * 2
    means = (np.array([mean1]), np.array([mean2]))
    with mock.patch.object(smartrar.simulator, "_posterior_means", lambda *args: means):
        p1, p2 = _policy_step(TrialSettings(utilities=table), np.zeros((1, 10)), np.array([m]), np.array([c]))
    return tuple(p1[0].tolist()), tuple(map(tuple, p2[0].tolist()[: 2 - m]))


def q_values(mean1, mean2, table: UtilityTable, m: int):
    """``_q_values`` for one trial, as ``run_block`` computes them: (Q1 by
    a1, Q2 by cell 2 a1 + a2)."""
    q = _q_values(np.array([mean1]), np.array([mean2]), row_utility(table), m)
    return q[0, :2].tolist(), q[0, 2:].tolist()


class TestQStage2:
    def test_prior_only_cell(self, default_table):
        assert q_values((0.5,) * 2, (0.5,) * 4, default_table, 0)[1][0] == pytest.approx(0.5)

    def test_conjugate_mean_cell(self, default_table):
        q2 = q_values((0.5,) * 2, (11 / 42,) * 4, default_table, 0)[1]
        assert q2[0] == pytest.approx(31 / 42)

    def test_general_utilities(self):
        table = UtilityTable.from_entries({"survived_a1_0_a2_0": 0.8, "died_a1_0_a2_0": 0.1})
        assert q_values((0.5,) * 2, (0.25,) * 4, table, 0)[1][0] == pytest.approx(0.625)


class TestQStage1:
    def test_myopic_drops_continuation(self, default_table):
        assert q_values((0.2,) * 2, (0.5,) * 4, default_table, 1)[0][0] == pytest.approx(0.8)

    def test_dynamic_continuation(self, default_table):
        # both a2 cells at death probability 0.2: the continuation is 0.8
        q1 = q_values((0.2,) * 2, (0.2,) * 4, default_table, 0)[0]
        assert q1[0] == pytest.approx(0.8 + 0.8 * 0.2)

    def test_certain_infection_reduces_to_continuation(self, default_table):
        q1 = q_values((1.0 - 1e-12,) * 2, (0.45,) * 4, default_table, 0)[0]
        assert q1[0] == pytest.approx(0.55, abs=1e-9)


class TestOptimalPolicy:
    def test_dynamic_example(self, default_table):
        # Q1 = (0.975, 0.5725), so stage one leans to arm 0
        p1, p2 = allocate((0.5, 0.45), SPLIT_DEATH, default_table, m=0)
        assert p1[0] == pytest.approx(0.975 / (0.975 + 0.5725))
        assert p2 == ((0.5, 0.5), (0.5, 0.5))

    def test_myopic_reversal(self, default_table):
        # the myopic Q1 = (0.5, 0.55) leans to arm 1, the more fatal arm
        p1, p2 = allocate((0.5, 0.45), SPLIT_DEATH, default_table, m=1)
        assert p1[1] == pytest.approx(0.55 / 1.05)
        assert len(p2) == 1


class TestBruteForceOracle:
    def test_known_values(self, default_table):
        values = enumerated_stage1_values((0.5, 0.45), SPLIT_DEATH, default_table)
        assert values[0] == pytest.approx(0.975)
        assert values[1] == pytest.approx(0.5725)

    def test_degenerate_no_infection(self, default_table):
        values = enumerated_stage1_values((1e-12, 1e-12), (0.9,) * 4, default_table)
        assert values[0] == pytest.approx(1.0, abs=1e-9)

    @given(
        p0=probs,
        p1=probs,
        m00=probs,
        m01=probs,
        m10=probs,
        m11=probs,
        table_values=st.lists(utilities, min_size=10, max_size=10),
    )
    def test_oracle_equivalence(self, p0, p1, m00, m01, m10, m11, table_values):
        table = random_table(table_values)
        mean2 = (m00, m01, m10, m11)
        induction = q_values((p0, p1), mean2, table, 0)[0]
        oracle = enumerated_stage1_values((p0, p1), mean2, table)
        for action in (0, 1):
            assert abs(induction[action] - oracle[action]) <= 1e-12


class TestInvariants:
    @given(mean=probs, table_values=st.lists(utilities, min_size=10, max_size=10))
    def test_linearity_reduction(self, mean, table_values):
        # averaging Q2 over draws with a given mean equals Q2 at that mean
        table = random_table(table_values)
        delta = min(mean, 1.0 - mean) / 2

        def q2(death: float) -> float:
            # cell (a1 = 1, a2 = 0)
            return q_values((0.5,) * 2, (death,) * 4, table, 0)[1][2]

        over_draws = (q2(mean - delta) + q2(mean + delta)) / 2
        assert abs(over_draws - q2(mean)) <= 1e-12

    @given(
        p0=probs,
        p1=probs,
        mean=probs,
        table_values=st.lists(utilities, min_size=10, max_size=10),
    )
    def test_q_values_within_table_bounds(self, p0, p1, mean, table_values):
        table = random_table(table_values)
        q = _q_values(np.array([(p0, p1)]), np.full((1, 4), mean), row_utility(table), 0)
        lo, hi = min(table_values), max(table_values)
        for value in q[0]:
            assert lo - 1e-12 <= value <= hi + 1e-12

    @given(p0=probs, p1=probs, m_a=probs, m_b=probs)
    def test_myopic_invariant_to_stage2(self, p0, p1, m_a, m_b):
        table = UtilityTable.default()
        stage1_a, _ = allocate((p0, p1), (m_a,) * 4, table, m=1)
        stage1_b, _ = allocate((p0, p1), (m_b,) * 4, table, m=1)
        assert stage1_a == stage1_b

    @given(
        p0=probs,
        p1=probs,
        m00=probs,
        m01=probs,
        m10=probs,
        m11=probs,
        table_values=st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=10, max_size=10),
        # powers of two scale exactly in binary floating point, so with
        # c in {0, 1} the allocations match exactly, not just to rounding
        lam=st.sampled_from([0.25, 0.5, 2.0, 8.0]),
        m=st.integers(0, 1),
        c=st.sampled_from([0.0, 1.0]),
    )
    def test_argmax_invariant_under_positive_scaling(
        self, p0, p1, m00, m01, m10, m11, table_values, lam, m, c
    ):
        # the utility scale has no effect on any allocation, so none on
        # which arm is favoured
        mean2 = (m00, m01, m10, m11)
        values = list(table_values)
        if m:
            values[6:10] = values[2:6]  # a table a myopic design can pool
        table = random_table(values)
        scaled = random_table([lam * v for v in values])
        assert allocate((p0, p1), mean2, table, m, c) == allocate((p0, p1), mean2, scaled, m, c)
