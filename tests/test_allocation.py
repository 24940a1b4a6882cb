"""Allocation-rule contracts and properties of ``allocation_pair``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from smartrar import ConfigurationError, DesignConfig, UtilityTable, allocation_pair
from smartrar.allocation import DEGENERATE_TOTAL

qvalues = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
positive_q = st.floats(min_value=1e-6, max_value=100.0, allow_nan=False)
exponents = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


def test_zero_exponent_gives_equal_split():
    assert allocation_pair(0.96, 0.64, c=0.0) == (0.5, 0.5)


def test_proportional_weighting():
    p0, p1 = allocation_pair(0.96, 0.64, c=1.0)
    assert p0 == pytest.approx(0.6, abs=1e-12)
    assert p1 == pytest.approx(0.4, abs=1e-12)


def test_zero_denominator_falls_back_to_equal():
    assert allocation_pair(0.0, 0.0, c=1.0) == (0.5, 0.5)


def test_dead_arm_stops_receiving_patients():
    assert allocation_pair(0.0, 0.7, c=1.0) == (0.0, 1.0)


def test_negative_q_rejected():
    # Q-values are convex combinations of table entries, so a negative one
    # can only come from a negative entry, which the table rejects.
    with pytest.raises(ConfigurationError):
        UtilityTable.from_entries({"survived_a1_0_a2_1": -0.1})


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        DesignConfig(myopic_m=0, adapt_c=-1.0)


@given(q0=qvalues, q1=qvalues, c=exponents)
def test_sums_to_one(q0, q1, c):
    assert abs(sum(allocation_pair(q0, q1, c)) - 1.0) <= 1e-12


@given(q0=positive_q, q1=positive_q, c=exponents, lam=st.floats(min_value=1e-3, max_value=1e3))
def test_scale_invariance(q0, q1, c, lam):
    base = allocation_pair(q0, q1, c)
    scaled = allocation_pair(lam * q0, lam * q1, c)
    assert base[0] == pytest.approx(scaled[0], rel=1e-9, abs=1e-12)


@given(q0=positive_q, q1=positive_q, c=st.floats(min_value=0.1, max_value=4.0))
def test_monotone_in_own_q(q0, q1, c):
    before = allocation_pair(q0, q1, c)[0]
    after = allocation_pair(q0 * 1.5, q1, c)[0]
    assert after >= before
    # Strictly, unless the share has rounded to 1 or the weights fall
    # under the degenerate-total fallback to equal allocation.
    if before < 1.0 and q0**c + q1**c >= DEGENERATE_TOTAL:
        assert after > before
