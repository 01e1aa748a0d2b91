"""Kernel correctness against dense oracles and the literal interval formulas."""

import numpy as np
import pytest

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


class TestWaldQuadratic:
    def test_matches_dense_oracle(self, payload):
        group, signs, _, _, scores, sigma_inv = payload
        q = group.q
        means = signs.astype(float) @ scores / q
        oracle = q * np.einsum("ij,jk,ik->i", means, sigma_inv, means)
        got = kernels.group_wald_quadratic(group.sweep(scores), sigma_inv, q)
        assert np.allclose(got, oracle, rtol=1e-11, atol=1e-13)


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

