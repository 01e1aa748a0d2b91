"""Confidence intervals: hand cases, profile behavior, oracle agreement."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artcluster import (
    ConfidenceInterval,
    GridTooCoarse,
    LinearHypothesis,
    fit_per_cluster,
    interval,
    interval_by_inversion,
    interval_inputs,
    run_test,
)
from artcluster.estimation import ClusterEstimates
from artcluster.groups import SignGroup
from artcluster.intervals import IntervalInputs, default_inversion_grid, inversion_scan
from artcluster.kernels import interval_bounds
from artcluster.randtest import cluster_weights, weighted_scores
from tests.conftest import random_contrast, random_dataset
from tests.oracles import (
    assert_same_selection,
    bit_expansion_signs,
    bits,
    exhaustive_half,
    exhaustive_sweep,
    pvalue_profile,
    sort_interval_endpoints,
)


def shift_contrast_estimates(est, contrast, delta):
    """Estimates whose c'beta_j values are shifted by delta."""
    c = np.asarray(contrast, dtype=float)
    bump = delta * c / float(c @ c)
    return ClusterEstimates(betas=est.betas + bump, sizes=est.sizes, labels=est.labels)


@st.composite
def point_instances(draw):
    """Estimates whose c'beta_j are equal, a few ulps apart or integers.

    These make point and near-point intervals, where rounding could
    leave the endpoints out of order.
    """
    q = draw(st.integers(3, 10))
    scale = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    kind = draw(st.sampled_from(["equal", "ulps", "integer"]))
    if kind == "integer":
        cbeta = np.array(draw(st.lists(st.integers(-3, 3), min_size=q, max_size=q))) * scale
    else:
        base = scale * draw(st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))
        steps = [0] * q
        if kind == "ulps":
            steps = draw(st.lists(st.integers(-4, 4), min_size=q, max_size=q))
        cbeta = np.array([base + k * np.spacing(base) for k in steps])
    if draw(st.booleans()):
        sizes = [draw(st.integers(1, 60))] * q
    else:
        sizes = draw(st.lists(st.integers(1, 60), min_size=q, max_size=q))
    alpha = draw(st.sampled_from([0.05, 0.1, 0.32, 0.5]))
    return point_estimates(cbeta, sizes), alpha


def whole_group_inputs(estimates, contrast) -> IntervalInputs:
    """a(g), b(g) over all 2^q rows, from the sign-matrix oracle.

    An exhaustive group's :func:`interval_inputs` are their first half.
    """
    b_scores = weighted_scores(estimates.betas, estimates.sizes, np.ravel(contrast))
    values = np.stack([cluster_weights(estimates.sizes), b_scores], axis=1)
    return IntervalInputs(*exhaustive_sweep(values))


def point_estimates(cbeta, sizes) -> ClusterEstimates:
    """One-covariate estimates with c'beta_j = ``cbeta[j]`` for the contrast [1]."""
    q = len(cbeta)
    return ClusterEstimates(betas=np.reshape(cbeta, (q, 1)), sizes=sizes, labels=tuple(range(q)))


class TestIntervalInputs:
    def test_hand_example(self, micro_estimates, group_cache):
        inputs = interval_inputs(micro_estimates, [1.0], group_cache(2))
        assert inputs.a[0] == 2.0
        assert inputs.b[0] == 4.0
        assert inputs.lambda0 == 2.0

    def test_balanced_flip_zeroes_slope(self, group_cache):
        # equal sizes, half the signs positive: the slope term vanishes
        est = ClusterEstimates(
            betas=np.array([[1.0], [2.0], [3.0], [4.0]]),
            sizes=np.full(4, 9),
            labels=("a", "b", "c", "d"),
        )
        inputs = interval_inputs(est, [1.0], group_cache(4))
        half = np.array([1, 1, -1, -1], dtype=np.int8)
        idx = next(
            i for i, row in enumerate(bit_expansion_signs(4)) if np.array_equal(row, half)
        )
        assert inputs.a[idx] == 0.0

    def test_matches_summation_oracle(self, rng, group_cache):
        data = random_dataset(rng, q=6, d=2)
        est = fit_per_cluster(data)
        c = random_contrast(rng, 2)
        group = group_cache(6)
        inputs = interval_inputs(est, c, group)
        assert inputs.a.shape == inputs.b.shape == (group.rows,)
        whole = whole_group_inputs(est, c)
        assert np.array_equal(bits(inputs.a), bits(exhaustive_half(whole.a)))
        assert np.array_equal(bits(inputs.b), bits(exhaustive_half(whole.b)))
        w = np.sqrt(est.sizes.astype(float))
        cb = est.betas @ c
        signs = bit_expansion_signs(6)
        for i in range(0, group.rows, 7):
            g = signs[i]
            assert inputs.a[i] == pytest.approx(np.sum(g * w) / 6, rel=1e-12, abs=1e-14)
            assert inputs.b[i] == pytest.approx(np.sum(g * w * cb) / 6, rel=1e-12, abs=1e-14)


class TestPerGBounds:
    # the q=2 group in lexicographic order: (1,1), (1,-1), (-1,1), (-1,-1);
    # a sweep returns the first two
    def test_hand_example_zero_slope_case(self, micro_estimates, group_cache):
        inputs = interval_inputs(micro_estimates, [1.0], group_cache(2))
        lo_all, hi_all = interval_bounds(inputs.a, inputs.b, inputs.pm_identity)
        assert lo_all[1] == 1.0
        assert hi_all[1] == 3.0

    def test_negated_identity_unbounded(self, micro_estimates, group_cache):
        inputs = interval_inputs(micro_estimates, [1.0], group_cache(2))
        lo_all, hi_all = interval_bounds(inputs.a, inputs.b, inputs.pm_identity)
        assert lo_all.tolist() == [-np.inf, 1.0] and hi_all.tolist() == [np.inf, 3.0]
        whole = whole_group_inputs(micro_estimates, [1.0])
        lo_all, hi_all = interval_bounds(whole.a, whole.b, whole.pm_identity)
        assert not np.isfinite(lo_all[3]) and lo_all[3] == -np.inf
        assert not np.isfinite(hi_all[3]) and hi_all[3] == np.inf

    def test_crossing_behavior(self, rng, group_cache):
        # just below the upper bound the flipped statistic dominates,
        # just above it the identity dominates (checked on |b - v a|)
        data = random_dataset(rng, q=6, d=2)
        est = fit_per_cluster(data)
        c = random_contrast(rng, 2)
        group = group_cache(6)
        inputs = interval_inputs(est, c, group)
        lo_all, hi_all = interval_bounds(inputs.a, inputs.b, inputs.pm_identity)
        eps = 1e-7

        def t(i, value):
            return abs(inputs.b[i] - value * inputs.a[i])

        def t_ref(value):
            return abs(inputs.b[0] - value * inputs.a[0])

        checked = 0
        for i in range(group.rows):
            a_abs = abs(inputs.a[i])
            if a_abs == 0.0 or a_abs >= inputs.a[0] * (1 - 1e-12):
                continue
            hi = hi_all[i]
            scale = max(1.0, abs(hi))
            assert t(i, hi - eps * scale) >= t_ref(hi - eps * scale)
            assert t(i, hi + eps * scale) < t_ref(hi + eps * scale)
            lo = lo_all[i]
            scale = max(1.0, abs(lo))
            assert t(i, lo + eps * scale) >= t_ref(lo + eps * scale)
            assert t(i, lo - eps * scale) < t_ref(lo - eps * scale)
            checked += 1
        assert checked > 10

    def test_antisymmetry(self, rng, group_cache):
        data = random_dataset(rng, q=7, d=2)
        estimates, c = fit_per_cluster(data), random_contrast(rng, 2)
        whole = whole_group_inputs(estimates, c)
        lo_all, hi_all = interval_bounds(whole.a, whole.b, whole.pm_identity)
        # lexicographic order pairs g with -g by reversal, bit for bit, and
        # the half sweep's bounds are the first half
        assert np.array_equal(bits(lo_all), bits(lo_all[::-1]))
        assert np.array_equal(bits(hi_all), bits(hi_all[::-1]))
        inputs = interval_inputs(estimates, c, group_cache(7))
        lo_half, hi_half = interval_bounds(inputs.a, inputs.b, inputs.pm_identity)
        assert np.array_equal(bits(lo_half), bits(lo_all[: lo_all.size // 2]))
        assert np.array_equal(bits(hi_half), bits(hi_all[: hi_all.size // 2]))


class TestInterval:
    def test_hand_example_alpha_06(self, micro_estimates, group_cache):
        inputs = interval_inputs(micro_estimates, [1.0], group_cache(2))
        ci = interval(inputs, 0.6)
        assert ci.lower == 1.0
        assert ci.upper == 3.0
        assert type(ci.lower) is float and type(ci.upper) is float

    def test_hand_example_alpha_03_unbounded(self, micro_estimates, group_cache):
        inputs = interval_inputs(micro_estimates, [1.0], group_cache(2))
        ci = interval(inputs, 0.3)
        assert not np.isfinite(ci.lower)
        assert not np.isfinite(ci.upper)
        assert not ci.is_bounded
        assert (str(ci.lower), str(ci.upper)) == ("-inf", "inf")

    @pytest.mark.parametrize(
        "lower, upper",
        [(np.nan, 1.0), (1.0, np.nan), (1.0, 1.0 - 1e-9)],
        ids=["nan-lower", "nan-upper", "out-of-order"],
    )
    def test_invalid_endpoints_rejected(self, lower, upper):
        with pytest.raises(ValueError):
            ConfidenceInterval(lower=lower, upper=upper, alpha=0.1, lambda0=1.0)

    def test_center_always_covered(self, rng, group_cache):
        for _ in range(10):
            q = int(rng.integers(4, 9))
            data = random_dataset(rng, q=q, d=2)
            inputs = interval_inputs(
                fit_per_cluster(data), random_contrast(rng, 2), group_cache(q)
            )
            for alpha in (0.05, 0.3, 0.9):
                ci = interval(inputs, alpha)
                assert ci.lower <= inputs.lambda0 <= ci.upper

    def test_shift_equivariance(self, rng, group_cache):
        data = random_dataset(rng, q=6, d=3)
        est = fit_per_cluster(data)
        c = random_contrast(rng, 3)
        group = group_cache(6)
        base = interval(interval_inputs(est, c, group), 0.1)
        delta = 2.75
        shifted = interval(
            interval_inputs(shift_contrast_estimates(est, c, delta), c, group), 0.1
        )
        assert shifted.lambda0 == pytest.approx(base.lambda0 + delta, rel=1e-9)
        assert shifted.lower == pytest.approx(base.lower + delta, rel=1e-9)
        assert shifted.upper == pytest.approx(base.upper + delta, rel=1e-9)

    def test_scale_equivariance(self, rng, group_cache):
        data = random_dataset(rng, q=6, d=2)
        est = fit_per_cluster(data)
        c = random_contrast(rng, 2)
        group = group_cache(6)
        base = interval(interval_inputs(est, c, group), 0.1)
        kappa = 3.5
        scaled_est = ClusterEstimates(betas=kappa * est.betas, sizes=est.sizes, labels=est.labels)
        scaled = interval(interval_inputs(scaled_est, c, group), 0.1)
        assert scaled.lambda0 == pytest.approx(kappa * base.lambda0, rel=1e-9)
        assert scaled.lower == pytest.approx(kappa * base.lower, rel=1e-9)
        assert scaled.upper == pytest.approx(kappa * base.upper, rel=1e-9)

    def test_degenerate_equal_estimates_collapse_to_point(self, group_cache):
        # identical rows in every cluster but unequal sizes: the interval
        # collapses to the center up to rounding, and must still validate
        y_pat = np.array([1.3, 2.7, 0.4, -0.9, 1.1])
        z_pat = np.array([[1.0, 0.2], [1.0, -1.4], [1.0, 0.9], [1.0, 2.2], [1.0, -0.6]])
        ys, zs, labels = [], [], []
        for j, reps in enumerate([1, 2, 3, 5]):
            ys.append(np.tile(y_pat, reps))
            zs.append(np.tile(z_pat, (reps, 1)))
            labels.extend([j] * 5 * reps)
        from artcluster import canonicalize

        data = canonicalize(labels, np.concatenate(ys), np.vstack(zs))
        inputs = interval_inputs(fit_per_cluster(data), [0.0, 1.0], group_cache(4))
        ci = interval(inputs, 0.4)
        scale = max(1.0, abs(inputs.lambda0))
        assert abs(ci.lower - inputs.lambda0) < 1e-12 * scale
        assert abs(ci.upper - inputs.lambda0) < 1e-12 * scale
        assert ci.lower <= ci.upper

    @settings(max_examples=200, deadline=None)
    @given(instance=point_instances())
    # the upper bounds hold +0.0 and -0.0: the closed form selects +0.0 and
    # the sorting oracle -0.0, the same value
    @example(instance=(point_estimates([0.0] * 5 + [-5e-324], [1] * 6), 0.05))
    def test_point_intervals_keep_endpoint_order(self, instance):
        estimates, alpha = instance
        inputs = interval_inputs(estimates, [1.0], SignGroup(estimates.q, "exhaustive"))
        ci = interval(inputs, alpha)
        assert ci.lower <= ci.upper
        lo_all, hi_all = interval_bounds(inputs.a, inputs.b, inputs.pm_identity)
        lower, upper = sort_interval_endpoints(lo_all, hi_all, alpha)
        pool = np.concatenate([lo_all, hi_all])
        assert_same_selection(ci.lower, lower, pool)
        assert_same_selection(ci.upper, upper, pool)

    def test_ulp_inverted_point_interval_is_swapped(self, group_cache):
        # three equal estimates: no row's bounds are out of order, but one
        # finite lower bound rounds to 0.1 + 1 ulp and the upper bounds to
        # 0.1, so at alpha = 0.8 (k = 7 of the group's 8, the 4th of the
        # half sweep's 4) the quantiles come out one ulp out of order and
        # are swapped back
        estimates = ClusterEstimates(betas=np.full((3, 1), 0.1), sizes=[2, 4, 3], labels=(0, 1, 2))
        whole = whole_group_inputs(estimates, [1.0])
        inputs = interval_inputs(estimates, [1.0], group_cache(3))
        for rows, k in ((whole, 7), (inputs, 4)):
            lo_all, hi_all = interval_bounds(rows.a, rows.b, rows.pm_identity)
            assert np.all(lo_all <= hi_all)
            assert np.sort(lo_all)[k - 1] == 0.10000000000000002
            assert np.sort(hi_all)[lo_all.size - k] == 0.1
            ci = interval(rows, 0.8)
            assert (ci.lower, ci.upper) == (0.1, 0.10000000000000002)

    def test_duality_with_test(self, rng, group_cache):
        data = random_dataset(rng, q=7, d=2)
        c = random_contrast(rng, 2)
        group = group_cache(7)
        alpha = 0.1
        ci = interval(interval_inputs(fit_per_cluster(data), c, group), alpha)
        lo, hi = ci.lower, ci.upper
        width = hi - lo
        inside = [lo + 0.25 * width, ci.lambda0, hi - 0.25 * width]
        outside = [lo - 0.05 * width, hi + 0.05 * width]
        for value in inside:
            res = run_test(data, LinearHypothesis(contrast=c, value=value), alpha, group)
            assert res.p_value >= alpha
        for value in outside:
            res = run_test(data, LinearHypothesis(contrast=c, value=value), alpha, group)
            assert res.p_value < alpha


class TestProfile:
    def test_center_value_is_one(self, rng, group_cache):
        data = random_dataset(rng, q=6, d=2)
        inputs = interval_inputs(fit_per_cluster(data), random_contrast(rng, 2), group_cache(6))
        assert pvalue_profile(inputs, inputs.lambda0) == 1.0

    def test_tail_limit(self, rng, group_cache):
        data = random_dataset(rng, q=6, d=2)
        group = group_cache(6)
        est, c = fit_per_cluster(data), random_contrast(rng, 2)
        inputs = interval_inputs(est, c, group)
        # far enough out only +-identity survive
        weighted = np.sqrt(est.sizes.astype(float)) * (est.betas @ c)
        span = float(np.max(np.abs(weighted))) + 1.0
        for value in (inputs.lambda0 - 1e6 * span, inputs.lambda0 + 1e6 * span):
            assert pvalue_profile(inputs, value) == 2.0 / group.size

    def test_unimodal_on_grid(self, rng, group_cache):
        for _ in range(5):
            q = int(rng.integers(5, 9))
            data = random_dataset(rng, q=q, d=2)
            inputs = interval_inputs(
                fit_per_cluster(data), random_contrast(rng, 2), group_cache(q)
            )
            grid = np.linspace(inputs.lambda0 - 5.0, inputs.lambda0 + 5.0, 401)
            values = np.array([pvalue_profile(inputs, v) for v in grid])
            below = grid < inputs.lambda0
            above = grid > inputs.lambda0
            assert np.all(np.diff(values[below]) >= 0.0)
            assert np.all(np.diff(values[above]) <= 0.0)


CENTER_OVERFLOWS = (r"^the center of contrast \[0\.0, 1e\+308\] overflows float64; "
                    "rescale the outcome or the contrast$")


class TestInversionOracle:
    def test_agrees_with_closed_form(self, rng, group_cache):
        for _ in range(4):
            q = int(rng.integers(5, 9))
            data = random_dataset(rng, q=q, d=2)
            est = fit_per_cluster(data)
            c = random_contrast(rng, 2)
            group = group_cache(q)
            ci = interval(interval_inputs(est, c, group), 0.1)
            grid = default_inversion_grid(est, c, points=2001)
            inv = interval_by_inversion(est, c, 0.1, group, grid)
            step = grid[1] - grid[0]
            assert abs(ci.lower - inv.lower) <= step
            assert abs(ci.upper - inv.upper) <= step

    def test_nested_grid_containment(self, rng, group_cache):
        data = random_dataset(rng, q=6, d=2)
        est = fit_per_cluster(data)
        c = random_contrast(rng, 2)
        group = group_cache(6)
        coarse_grid = default_inversion_grid(est, c, points=501)
        fine_grid = default_inversion_grid(est, c, points=4001)
        coarse = interval_by_inversion(est, c, 0.1, group, coarse_grid)
        fine = interval_by_inversion(est, c, 0.1, group, fine_grid)
        coarse_step = coarse_grid[1] - coarse_grid[0]
        assert fine.lower >= coarse.lower - coarse_step
        assert fine.upper <= coarse.upper + coarse_step

    def test_reasonable_alpha_bounded(self, rng, group_cache):
        data = random_dataset(rng, q=7, d=2)
        est = fit_per_cluster(data)
        c = random_contrast(rng, 2)
        inv = interval_by_inversion(est, c, 0.2, group_cache(7))
        assert np.isfinite(inv.lower) and np.isfinite(inv.upper)

    def test_grid_too_coarse(self, rng, group_cache):
        data = random_dataset(rng, q=6, d=2)
        est = fit_per_cluster(data)
        c = random_contrast(rng, 2)
        inputs = interval_inputs(est, c, group_cache(6))
        ci = interval(inputs, 0.2)
        lo, hi = ci.lower, ci.upper
        # two points bracketing the center but far outside the interval
        width = hi - lo
        grid = np.array([lo - 60 * width, hi + 60 * width])
        with pytest.raises(GridTooCoarse):
            interval_by_inversion(est, c, 0.2, group_cache(6), grid)

    def test_grid_must_contain_center(self, rng, group_cache):
        data = random_dataset(rng, q=5, d=2)
        est = fit_per_cluster(data)
        c = random_contrast(rng, 2)
        inputs = interval_inputs(est, c, group_cache(5))
        grid = np.linspace(inputs.lambda0 + 1.0, inputs.lambda0 + 2.0, 50)
        with pytest.raises(ValueError):
            interval_by_inversion(est, c, 0.1, group_cache(5), grid)

    @pytest.mark.parametrize(
        "contrast, grid, message",
        [
            # the scores at +-1e308 overflow; the engine's sweep refuses them
            ([0.0, 1.0], [-1e308, 0, 2, 1e308], "absolute sum over the clusters overflows"),
            # the center overflows: refused before a default grid is built,
            # and before an explicit finite grid is checked against it
            ([0.0, 1e308], None, CENTER_OVERFLOWS),
            ([0.0, 1e308], [-1.0, 0.0, 1.0], CENTER_OVERFLOWS),
        ],
        ids=["grid", "contrast", "contrast-finite-grid"],
    )
    def test_overflowing_grid_refused_without_warning(self, rng, group_cache, contrast, grid,
                                                      message):
        est = fit_per_cluster(random_dataset(rng, q=8, d=2))
        with pytest.raises(ValueError, match=message):
            interval_by_inversion(est, contrast, 0.05, group_cache(8), grid)

    def test_nonrejection_region_contiguous(self, rng, group_cache):
        data = random_dataset(rng, q=6, d=2)
        est = fit_per_cluster(data)
        c = random_contrast(rng, 2)
        group = group_cache(6)
        grid = default_inversion_grid(est, c, points=801)
        for alpha in (0.01, 0.05, 0.10, 0.32):
            keep = inversion_scan(est, c, alpha, group, grid)
            idx = np.flatnonzero(keep)
            assert idx.size > 0
            assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))
