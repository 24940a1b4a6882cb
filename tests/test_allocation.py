"""Allocation-rule contracts and properties of ``allocation_probs``."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smartrar import ConfigurationError, DesignConfig, UtilityTable, allocation_probs
from smartrar.simulator import DEGENERATE_TOTAL

qvalues = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
positive_q = st.floats(min_value=1e-6, max_value=100.0, allow_nan=False)
exponents = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


def pair(q0, q1, c):
    """``allocation_probs`` on one (Q0, Q1) pair, as a tuple of floats."""
    return tuple(allocation_probs([q0, q1], c).tolist())


def test_zero_exponent_gives_equal_split():
    assert pair(0.96, 0.64, c=0.0) == (0.5, 0.5)


def test_proportional_weighting():
    p0, p1 = pair(0.96, 0.64, c=1.0)
    assert p0 == pytest.approx(0.6, abs=1e-12)
    assert p1 == pytest.approx(0.4, abs=1e-12)


def test_zero_denominator_falls_back_to_equal():
    assert pair(0.0, 0.0, c=1.0) == (0.5, 0.5)


def test_dead_arm_stops_receiving_patients():
    assert pair(0.0, 0.7, c=1.0) == (0.0, 1.0)


def test_negative_q_rejected():
    # Q-values are convex combinations of table entries, so a negative one
    # can only come from a negative entry, which the table rejects.
    with pytest.raises(ConfigurationError):
        UtilityTable.from_entries({"survived_a1_0_a2_1": -0.1})


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        DesignConfig(myopic_m=0, adapt_c=-1.0)


def test_array_layout_matches_pairs():
    # The trailing axis holds the two actions; c broadcasts over the rest.
    q = np.array([[[0.96, 0.64], [0.2, 0.5]], [[0.0, 0.7], [0.3, 0.3]]])
    c = np.array([[1.0], [2.0]])
    expected = [[pair(*q[t, h], c[t, 0]) for h in (0, 1)] for t in (0, 1)]
    assert allocation_probs(q, c).tolist() == [[list(p) for p in row] for row in expected]


def test_stacked_pairs_match_the_per_stage_calls():
    # _policy_step makes one call on each trial's three pairs (stage one, then
    # stage two by a1) where it used to make one call per stage; the rule
    # acts on each pair alone, so the bits must not change. Large c makes
    # some pairs underflow or overflow, and zero pairs fall back to 1/2.
    rng = np.random.default_rng(17)
    q = rng.uniform(0.0, 2.0, size=(400, 3, 2))
    q[::7] = 0.0
    q[3::11, :, 0] = 0.0
    q[5::13] *= 1e-3
    q[1, 0] = (40.0, 30.0)  # a pair far above the others' scale
    c = rng.choice([0.0, 0.5, 1.0, 3.0, 60.0, 400.0, 5000.0], size=400)
    stacked = allocation_probs(q, c[:, None])
    stage1 = allocation_probs(q[:, 0], c)
    stage2 = allocation_probs(q[:, 1:], c[:, None])
    with np.errstate(over="ignore"):
        total = (q ** c[:, None, None]).sum(axis=2)
    positive = q.max(axis=2) > 0.0
    assert (positive & (c[:, None] == 0.0)).any()
    assert (positive & (total < DEGENERATE_TOTAL)).any()
    assert np.isinf(total).any()
    assert stacked[:, 0].tobytes() == stage1.tobytes()
    assert stacked[:, 1:].tobytes() == stage2.tobytes()


@pytest.mark.parametrize("q0, q1", [(0.5, 0.6), (0.19, 0.2), (5.0, 6.0)])
def test_large_exponent_keeps_favouring_the_better_arm(q0, q1):
    # Past some c the plain weights Q^c underflow below DEGENERATE_TOTAL
    # (or overflow); the rule must go on tending to all-on-the-better-arm,
    # and must not depend on the scale of Q.
    exponents = [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 60.0, 100.0, 1000.0]
    better = [pair(q0, q1, c)[1] for c in exponents]
    assert better[0] == 0.5
    assert all(b > a for a, b in zip(better, better[1:]) if a < 1.0), better
    assert better[-1] == 1.0
    for c in (60.0, 100.0, 1000.0):
        for lam in (1e-3, 0.5, 2.0, 1e3):
            assert pair(lam * q0, lam * q1, c) == pytest.approx(pair(q0, q1, c), rel=1e-9, abs=1e-12)
    assert 0.19**20 + 0.2**20 < DEGENERATE_TOTAL
    assert pair(0.19, 0.2, 20.0)[1] == pytest.approx(1.0 / (1.0 + 0.95**20), rel=1e-12)


@given(q0=qvalues, q1=qvalues, c=exponents)
def test_sums_to_one(q0, q1, c):
    assert abs(sum(pair(q0, q1, c)) - 1.0) <= 1e-12


@given(q0=positive_q, q1=positive_q, c=exponents, lam=st.floats(min_value=1e-3, max_value=1e3))
def test_scale_invariance(q0, q1, c, lam):
    base = pair(q0, q1, c)
    scaled = pair(lam * q0, lam * q1, c)
    assert base[0] == pytest.approx(scaled[0], rel=1e-9, abs=1e-12)


@given(q0=positive_q, q1=positive_q, c=st.floats(min_value=0.1, max_value=4.0))
def test_monotone_in_own_q(q0, q1, c):
    before = pair(q0, q1, c)[0]
    after = pair(q0 * 1.5, q1, c)[0]
    assert after >= before
    # Strictly, unless the share has rounded to 1: positive Q-values never
    # fall back to equal allocation, however small their weights Q^c.
    if before < 1.0:
        assert after > before
