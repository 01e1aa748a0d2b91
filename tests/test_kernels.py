"""Kernel correctness against dense oracles and the literal interval formulas."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artcluster import kernels
from artcluster.groups import SignGroup
from tests.oracles import bit_expansion_signs


@pytest.fixture(scope="module")
def payload():
    rng = np.random.default_rng(5150)
    group = SignGroup(9, "exhaustive")
    signs = bit_expansion_signs(9)
    values = rng.standard_normal(9)
    weights = np.sqrt(rng.integers(2, 60, size=9).astype(float))
    scores = rng.standard_normal((9, 3))
    sigma_inv = np.linalg.inv(scores.T @ scores / 9)
    return group, signs, values, weights, scores, sigma_inv


class TestGroupMeans:
    def test_matches_dense_oracle(self, payload):
        group, signs, values, _, _, _ = payload
        oracle = (signs.astype(float) @ values) / group.q
        got = kernels.group_means(signs, values)
        assert np.allclose(got, oracle, rtol=1e-13, atol=1e-15)

    def test_identity_row_is_plain_mean(self, payload):
        _, signs, values, _, _, _ = payload
        assert kernels.group_means(signs, values)[0] == pytest.approx(
            values.mean(), rel=1e-13
        )


    def test_means_are_the_sums_over_q(self, payload):
        group, signs, _, _, scores, _ = payload
        sums = kernels.group_sums(signs, scores)
        assert np.array_equal(kernels.group_means(signs, scores), sums / group.q)


FLOAT_MAX = float(np.finfo(np.float64).max)


def scan_least_dividend(t: float, q: int, steps: int = 8):
    """The least a with a / q >= t, walked by nextafter steps from fl(t * q) (max if it overflows).

    Python floats divide with IEEE rounding.  Returns None where the walk
    needs more than ``steps`` steps, as it can where a / q is subnormal.
    """
    a = min(t * q, FLOAT_MAX)
    for _ in range(steps):
        if a / q < t:
            a = math.nextafter(a, math.inf)
        elif math.nextafter(a, 0.0) / q >= t:
            a = math.nextafter(a, 0.0)
        else:
            return a
    return None


def ulps_from(x: float, k: int) -> float:
    """The float k steps above x (below it for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def dividend_thresholds(draw):
    """A divisor q in [2, 2^20] and thresholds of every kind for it, in one array."""
    q = draw(st.one_of(st.integers(2, 2**20), st.sampled_from([2, 3, 10, 2**20 - 1, 2**20])))
    edge = FLOAT_MAX / q
    kinds = st.one_of(
        st.floats(max_value=0.0, allow_nan=False),  # -0.0 and -inf included
        st.integers(1, 2**52 - 1).map(lambda b: float(np.int64(b).view(np.float64))),  # subnormal
        st.floats(min_value=2.0**-1022, max_value=edge),
        # around fl(max / q), where t * q overflows, and above it, where no finite a reaches
        st.integers(-3, 3).map(lambda k: ulps_from(edge, k)),
        st.floats(min_value=edge, max_value=FLOAT_MAX),
    )
    return q, draw(st.lists(kinds, min_size=1, max_size=20))


class TestLeastDividend:
    @settings(max_examples=150, deadline=None)
    @given(case=dividend_thresholds())
    @example(case=(2, [1.0, 5e-324, 2.0**-1022, FLOAT_MAX / 2, FLOAT_MAX, -0.0, 0.0, -1.0]))
    @example(case=(2**20, [5e-324, 1e-310, 2.2250738585072014e-308, 0.1]))
    def test_least_float_whose_quotient_reaches_t(self, case):
        """fl(L / q) >= t > fl(nextafter(L, 0) / q), and the nextafter walk agrees where it ends."""
        q, ts = case
        got = kernels.least_dividend(np.array(ts), q)
        for t, limit in zip(ts, got.tolist()):
            if t <= 0.0:  # every a >= 0 reaches t
                assert limit == t
                continue
            assert limit / q >= t > math.nextafter(limit, 0.0) / q, (t, q, limit)
            walked = scan_least_dividend(t, q)
            if t >= 2.0**-1022:  # a normal quotient: L lies a few steps from fl(t * q)
                assert walked is not None, (t, q)
            if walked is not None:
                assert limit == walked, (t, q)
            assert kernels.least_dividend(t, q) == limit  # alone, as a 0-d threshold

    @pytest.mark.parametrize("t", [0.5, 5e-324, -2.0, -0.0])
    def test_divisor_one_is_the_identity(self, t):
        assert kernels.least_dividend(t, 1) == t


class TestWaldQuadratic:
    def test_matches_dense_oracle(self, payload):
        group, signs, _, _, scores, sigma_inv = payload
        q = group.q
        means = signs.astype(float) @ scores / q
        oracle = q * np.einsum("ij,jk,ik->i", means, sigma_inv, means)
        # the sweep returns the first half of the rows, g_0 = +1
        got = kernels.group_wald_quadratic(group.sweep(scores), sigma_inv, q)
        assert got.shape == (group.rows,)
        assert np.allclose(got, oracle[: group.rows], rtol=1e-11, atol=1e-13)
        assert np.allclose(got[::-1], oracle[group.rows :], rtol=1e-11, atol=1e-13)


def _literal_bounds(a, b, a0, b0, pm):
    """The crossing-point formulas exactly as displayed, divisions and all."""
    lam0 = b0 / a0
    lo = np.empty_like(a)
    hi = np.empty_like(a)
    for i in range(a.shape[0]):
        if pm[i]:
            lo[i], hi[i] = -np.inf, np.inf
        elif a[i] == 0.0:
            lo[i] = lam0 - abs(b[i]) / a0
            hi[i] = lam0 + abs(b[i]) / a0
        else:
            ratio = b[i] / a[i]
            plus = lam0 * a0 / (a0 + abs(a[i])) + ratio * abs(a[i]) / (a0 + abs(a[i]))
            minus = lam0 * a0 / (a0 - abs(a[i])) - ratio * abs(a[i]) / (a0 - abs(a[i]))
            lo[i] = plus if ratio <= lam0 else minus
            hi[i] = plus if ratio >= lam0 else minus
    return lo, hi


class TestIntervalBounds:
    def test_matches_literal_formulas(self, payload):
        group, signs, _, weights, _, _ = payload
        rng = np.random.default_rng(12)
        wb = weights * rng.standard_normal(group.q)
        a = kernels.group_means(signs, weights)
        b = kernels.group_means(signs, wb)
        pm = np.all(signs == signs[:, :1], axis=1)
        lo, hi = kernels.interval_bounds(a, b, pm)
        lo_ref, hi_ref = _literal_bounds(a, b, float(a[0]), float(b[0]), pm)
        assert np.allclose(lo, lo_ref, rtol=1e-10, atol=1e-12)
        assert np.allclose(hi, hi_ref, rtol=1e-10, atol=1e-12)

    def test_zero_slope_rows(self):
        # equal weights, half the signs flipped: a(g) is exactly zero
        signs = bit_expansion_signs(4)
        w = np.full(4, 2.0)
        wb = w * np.array([1.0, 3.0, -2.0, 0.5])
        a = kernels.group_means(signs, w)
        b = kernels.group_means(signs, wb)
        pm = np.all(signs == signs[:, :1], axis=1)
        lo, hi = kernels.interval_bounds(a, b, pm)
        zero_rows = (a == 0.0) & ~pm
        assert zero_rows.any()
        lam0 = b[0] / a[0]
        assert np.allclose(lo[zero_rows], lam0 - np.abs(b[zero_rows]) / a[0])
        assert np.allclose(hi[zero_rows], lam0 + np.abs(b[zero_rows]) / a[0])

