"""Test engine: statistics, critical values, p-values, invariances."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artcluster import (
    ClusteredDataset,
    DegenerateVariance,
    LinearHypothesis,
    MultiHypothesis,
    SingularSigma,
    canonicalize,
    critical_value,
    fit_per_cluster,
    run_test,
    run_wald_test,
    scores_from_estimates,
)
from artcluster import groups
from artcluster.groups import SignGroup
from artcluster.randtest import (
    TestResult as RandTestResult,
    cluster_weights,
    pvalue_from_statistics,
    run_test_columns,
    run_test_from_scores,
    weighted_scores,
)
from tests.conftest import random_contrast, random_dataset
from tests.oracles import (
    bit_expansion_signs,
    bits,
    column_loop_means,
    decision_loop,
    scores_via_restricted,
    statistic,
    statistic_studentized,
    statistic_wald,
    weighted_scores_loop,
)

# (betas, contrast, values) shapes of one null value, a Wald row of values,
# a contrast column over a grid, and a stack of replications
SCORE_SHAPES = {"scalar": ((7, 3), (3,), ()), "wald": ((7, 3), (3, 2), (2,)),
                "grid": ((7, 3), (3, 1), (9,)), "stack": ((5, 7, 3), (3,), ())}


class TestScores:
    def test_hand_example(self, micro_estimates):
        h = LinearHypothesis(contrast=[1.0], value=2.0)
        sv = scores_from_estimates(micro_estimates, h)
        assert sv.shape == (2,)
        assert sv.tolist() == [-2.0, 2.0]

    def test_zero_when_value_matches(self, micro_estimates):
        h = LinearHypothesis(contrast=[1.0], value=1.0)
        sv = scores_from_estimates(micro_estimates, h)
        assert sv[0] == 0.0

    def test_unknown_scaling_refused(self):
        with pytest.raises(ValueError, match="^unknown scaling 'root'"):
            cluster_weights(np.array([4, 9]), "root")

    def test_root_n_scaling(self, micro_estimates):
        h = LinearHypothesis(contrast=[1.0], value=2.0)
        sv = scores_from_estimates(micro_estimates, h, scaling="root_n")
        assert np.allclose(sv, np.sqrt(8.0) * np.array([-1.0, 1.0]))

    @pytest.mark.parametrize("scaling", ["root_nj", "root_n"])
    @pytest.mark.parametrize("huge", [False, True])
    @pytest.mark.parametrize("shape", SCORE_SHAPES)
    def test_formula_matches_loop(self, shape, huge, scaling):
        b_shape, c_shape, v_shape = SCORE_SHAPES[shape]
        rng = np.random.default_rng(0)
        # multiples of 1/8: every contrast c'beta_j is exact in any summation order
        betas, contrast = (rng.integers(-64, 65, size=s) / 8.0 for s in (b_shape, c_shape))
        values = rng.standard_normal(v_shape)
        sizes = rng.integers(1, 40, size=b_shape[-2])
        if huge:  # c'beta overflows to +-inf on clusters 0 and 1, before the values
            betas[..., :2, 0] = [1e308, -1e308]
            contrast[0] = 2.0
            values = np.full(v_shape, 1e308)
        got = weighted_scores(betas, sizes, contrast, values, scaling)
        expected = weighted_scores_loop(betas, sizes, contrast, values, scaling)
        assert got.shape == expected.shape and np.array_equal(bits(got), bits(expected))
        first_two = got[..., :2] if len(c_shape) == 1 else got[..., :2, :]
        assert not np.isfinite(first_two).any() if huge else np.isfinite(got).all()


class TestStatistic:
    def test_cancellation(self):
        assert statistic(np.array([-2.0, 2.0]), [1, 1]) == 0.0

    def test_hand_value(self):
        assert statistic(np.array([-2.0, 2.0]), [1, -1]) == 2.0

    @given(st.integers(min_value=0, max_value=2**6 - 1))
    @settings(max_examples=64, deadline=None)
    def test_negation_symmetry(self, pattern):
        rng = np.random.default_rng(pattern)
        s = rng.standard_normal(6)
        g = np.array([1 if (pattern >> j) & 1 == 0 else -1 for j in range(6)], dtype=np.int8)
        assert statistic(s, g) == statistic(s, -g)


class TestStudentized:
    def test_zero_numerator(self):
        assert statistic_studentized(np.array([-2.0, 2.0]), [1, 1]) == 0.0

    def test_degenerate_spread(self):
        with pytest.raises(DegenerateVariance):
            statistic_studentized(np.array([3.0, 3.0, 3.0]), [1, 1, 1])

    def test_rank_order_preserved(self, rng, group_cache):
        s = rng.standard_normal(7)
        signs = bit_expansion_signs(7)
        plain = np.abs(column_loop_means(signs, s))
        stud = np.array([statistic_studentized(s, g) for g in signs])
        # identical acceptance indicators against the identity row
        assert np.array_equal(plain >= plain[0], stud >= stud[0])
        # and identical ordering, ties included
        assert np.array_equal(np.argsort(plain, kind="stable"), np.argsort(stud, kind="stable"))
        # so the engine maps only the statistic and critical value of the |mean| sweep
        studentized = decision_loop(signs, s[:, None], 0.1, "studentized")
        plain_p = decision_loop(signs, s[:, None], 0.1)[2]
        got = run_test_columns(s[:, None], group_cache(7), "studentized")
        assert np.array_equal(bits(got), bits([studentized[0], plain_p]))
        result = run_test_from_scores(s, 0.1, group_cache(7), "studentized")
        assert bits(result.critical_value) == bits(studentized[1, 0])

    # these scores' mean(v^2) overflows float64 from k = 512 on (k = 400 stays
    # finite), and their squares underflow from k = -511 down; the spread is
    # taken on values scaled by a power of two, exactly, so no k moves the
    # statistic or the critical value.  The p-value is the |mean| sweep's, whose
    # tie snap scales with the sweep's largest statistic, so no k moves it either
    @pytest.mark.parametrize("k", [-1000, -600, -511, -480, 400, 512, 600, 1000])
    def test_overflowing_spread_keeps_bits(self, rng, group_cache, k):
        s = rng.standard_normal(8)
        want = run_test_from_scores(s, 0.05, group_cache(8), "studentized")
        got = run_test_from_scores(np.ldexp(s, k), 0.05, group_cache(8), "studentized")
        for name in ("statistic", "critical_value", "p_value"):
            assert bits(getattr(got, name)) == bits(getattr(want, name))

    def test_overflowing_zero_spread_still_degenerate(self, group_cache):
        with pytest.raises(DegenerateVariance, match="zero spread"):
            run_test_from_scores(np.full(6, 2.0**600), 0.05, group_cache(6), "studentized")


class TestWaldStatistic:
    def test_zero_case(self, rng):
        data = random_dataset(rng, q=5, d=2)
        est = fit_per_cluster(data)
        mh = MultiHypothesis(restriction=np.eye(2), values=est.betas[0])
        # identity restriction satisfied only approximately; use exact zero case
        mh0 = MultiHypothesis(restriction=np.eye(2), values=np.zeros(2))
        zero_est = est
        # all scores zero <=> R beta_j = values for every j; build that directly
        betas = np.tile(np.array([0.4, -0.2]), (5, 1))
        from artcluster.estimation import ClusterEstimates

        zero_est = ClusterEstimates(betas=betas, sizes=est.sizes, labels=est.labels)
        mh_exact = MultiHypothesis(restriction=np.eye(2), values=[0.4, -0.2])
        assert statistic_wald(zero_est, mh_exact, np.ones(5, dtype=np.int8)) == 0.0
        assert statistic_wald(est, mh0, np.ones(5, dtype=np.int8)) > 0.0

    def test_matches_dense_oracle(self, rng):
        data = random_dataset(rng, q=6, d=3)
        est = fit_per_cluster(data)
        mh = MultiHypothesis(
            restriction=rng.standard_normal((2, 3)), values=rng.standard_normal(2)
        )
        n = est.n
        S = np.sqrt(n) * (est.betas @ mh.restriction.T - mh.values)
        sigma = S.T @ S / 6
        for g in bit_expansion_signs(6)[:16]:
            mean = (g[:, None] * S).mean(axis=0)
            oracle = 6 * mean @ np.linalg.inv(sigma) @ mean
            assert statistic_wald(est, mh, g) == pytest.approx(oracle, rel=1e-9)

    def test_singular_sigma(self, rng):
        data = random_dataset(rng, q=4, d=2)
        est = fit_per_cluster(data)
        # restriction rows are repeats up to scale: rank-1 scores
        from artcluster.estimation import ClusterEstimates

        betas = np.outer(np.arange(1.0, 5.0), np.array([1.0, 2.0]))
        est = ClusterEstimates(betas=betas, sizes=est.sizes, labels=est.labels)
        mh = MultiHypothesis(restriction=np.eye(2), values=np.zeros(2))
        with pytest.raises(SingularSigma):
            statistic_wald(est, mh, np.ones(4, dtype=np.int8))

    # values near 1e300 swamp the estimates: both score columns are constant
    # to rounding, so the outer-product matrix is singular on any scale
    @pytest.mark.parametrize("values", [[1e300, 1e300]])
    def test_values_swamping_the_estimates_are_singular(self, rng, values):
        data = random_dataset(rng, q=8, d=3)
        mh = MultiHypothesis(restriction=np.eye(3)[1:], values=values)
        with pytest.raises(SingularSigma, match="^score outer-product matrix is numerically "):
            run_wald_test(data, mh, 0.1, SignGroup(8, "exhaustive"))

    # a value of 1e160 swamps one row's estimates, so its score column is
    # constant to rounding, but the two columns have full rank; each column is
    # scaled by its own power of two, so the value times 2^k gives the same bits
    @pytest.mark.parametrize("k", [-400, 10, 400])
    def test_value_swamping_one_row_is_answered(self, rng, k):
        data = random_dataset(rng, q=8, d=3)
        group = SignGroup(8, "exhaustive")
        want, got = (
            run_wald_test(data, MultiHypothesis(np.eye(3)[1:], [value, 0.0]), 0.1, group)
            for value in (1e160, np.ldexp(1e160, k))
        )
        assert np.isfinite(want.statistic)
        for name in ("statistic", "critical_value", "p_value"):
            assert bits(getattr(got, name)) == bits(getattr(want, name)), name

    # an outcome of order 1e-155 or 1e-160 gives scores whose squares fall
    # below the smallest normal float; the outer-product matrix is built from
    # the scores scaled by a power of two, so the test is decided as at scale 1
    @pytest.mark.parametrize("scale", [1e-155, 1e-160])
    def test_underflowing_outer_product_answered(self, rng, scale):
        data = random_dataset(rng, q=8, d=3)
        tiny = ClusteredDataset(data.outcomes * scale, data.covariates, data.sizes, data.labels)
        mh = MultiHypothesis(restriction=np.eye(3)[1:], values=np.zeros(2))
        want = run_wald_test(data, mh, 0.1, SignGroup(8, "exhaustive"))
        got = run_wald_test(tiny, mh, 0.1, SignGroup(8, "exhaustive"))
        assert got.statistic == pytest.approx(want.statistic, rel=1e-12)
        assert got.critical_value == pytest.approx(want.critical_value, rel=1e-12)
        assert got.p_value == want.p_value

    # the outcome times 2^k is exact and the quadratic form is scale-free, so
    # every k gives the k = 0 bits: the scores' squares overflow from k = 507 on
    # and fall below the smallest normal float from k = -515 down
    @pytest.mark.parametrize(
        "k", sorted({*range(-960, 961, 120), -565, -541, -515, -514, 506, 507, 960})
    )
    def test_outcome_scale_keeps_bits(self, rng, k):
        data = random_dataset(rng, q=8, d=3)
        scaled = ClusteredDataset(np.ldexp(data.outcomes, k), data.covariates, data.sizes,
                                  data.labels)
        for p in (2, 1):
            mh = MultiHypothesis(restriction=np.eye(3)[3 - p:], values=np.zeros(p))
            want = run_wald_test(data, mh, 0.1, SignGroup(8, "exhaustive"))
            got = run_wald_test(scaled, mh, 0.1, SignGroup(8, "exhaustive"))
            for name in ("statistic", "critical_value", "p_value"):
                assert bits(getattr(got, name)) == bits(getattr(want, name)), (p, name)

    # the Wald form is unchanged when one restriction row is rescaled, and each
    # score column is scaled by its own power of two before the rank check, so
    # row 2 of I_3 times 2^k gives the k = 0 bits
    @pytest.mark.parametrize("k", [-300, -40, 20, 40, 200, 900])
    def test_restriction_row_scale_keeps_bits(self, k):
        data = random_dataset(np.random.default_rng(20240817), q=8, d=3)
        group = SignGroup(8, "exhaustive")
        rows = np.eye(3)[1:]
        want = run_wald_test(data, MultiHypothesis(rows, np.zeros(2)), 0.1, group)
        rows[0] = np.ldexp(rows[0], k)
        got = run_wald_test(data, MultiHypothesis(rows, np.zeros(2)), 0.1, group)
        for name in ("statistic", "critical_value", "p_value"):
            assert bits(getattr(got, name)) == bits(getattr(want, name)), name

    def test_wrong_width_restriction_refused(self, rng):
        # the scores' one contrast-length check refuses it, after the fits
        data = random_dataset(rng, q=6, d=3)
        mh = MultiHypothesis(restriction=np.eye(2), values=np.zeros(2))
        with pytest.raises(ValueError, match="^contrast length must equal the covariate count$"):
            run_wald_test(data, mh, 0.1, SignGroup(6, "exhaustive"))

    @pytest.mark.parametrize("p", [1, 2])
    def test_all_zero_scores(self, rng, p):
        # every cluster holds the same rows, so every cluster's fit is the same
        # and restriction values equal to those coefficients zero every score
        Z = np.column_stack([np.ones(6), rng.standard_normal(6)])
        y = Z @ np.array([0.3, -1.1]) + rng.standard_normal(6)
        q = 5
        data = canonicalize(np.repeat(np.arange(q), 6), np.tile(y, q), np.tile(Z, (q, 1)))
        betas = fit_per_cluster(data).betas
        assert np.array_equal(betas, np.tile(betas[0], (q, 1)))
        restriction = np.eye(2)[-p:]
        mh = MultiHypothesis(restriction=restriction, values=restriction @ betas[0])
        for group in (SignGroup(q, "exhaustive"), None):
            res = run_wald_test(data, mh, 0.1, group)
            assert (res.statistic, res.critical_value, res.p_value) == (0.0, 0.0, 1.0)
            assert res.reject is False
            assert res.group.size == 2**q

    def test_scalar_wald_matches_unstudentized_pvalue(self, rng, group_cache):
        data = random_dataset(rng, q=7, d=2)
        c = random_contrast(rng, 2)
        lam = float(rng.standard_normal())
        group = group_cache(7)
        scores = scores_from_estimates(
            fit_per_cluster(data), LinearHypothesis(contrast=c, value=lam), "root_n"
        )
        plain = run_test_from_scores(scores, 0.1, group)
        wald = run_wald_test(
            data,
            MultiHypothesis(restriction=c.reshape(1, -1), values=[lam]),
            0.1,
            group,
        )
        assert wald.p_value == plain.p_value


class TestCriticalValue:
    def test_order_statistic_example(self):
        assert critical_value([0.0, 2.0, 2.0, 0.0], 0.95) == 2.0

    def test_constant_multiset(self):
        for level in (0.01, 0.5, 0.99):
            assert critical_value([3.3] * 7, level) == 3.3

    def test_matches_scan_oracle(self, rng):
        values = rng.standard_normal(1000)
        ordered = np.sort(values)
        for level in np.arange(0.01, 1.0, 0.07):
            # inf{u : count(values <= u)/m >= level}, scanning sorted values
            counts = np.arange(1, 1001) / 1000.0
            oracle = ordered[np.argmax(counts >= level - 1e-12)]
            assert critical_value(values, level) == oracle

    def test_partitions_a_writeable_array_in_place_only(self):
        values = np.array([3.0, 1.0, 4.0, 1.5, 2.0])
        frozen = values.copy()
        frozen.flags.writeable = False
        assert critical_value(frozen, 0.5) == critical_value(values, 0.5) == 2.0
        assert frozen.tolist() == [3.0, 1.0, 4.0, 1.5, 2.0]
        assert sorted(values) == sorted(frozen) and values[2] == 2.0

    def test_product_rounding_guard(self):
        # 1000 * 0.9 must select the 900th value despite float fuzz
        values = np.arange(1000, dtype=float)
        assert critical_value(values, 0.9) == 899.0

    @pytest.mark.parametrize(
        "values, level, message",
        [
            ([], 0.5, r"^need a nonempty multiset$"),
            ([1.0, 2.0], 0.0, r"^level must lie in \(0, 1\)$"),
            ([1.0, 2.0], 1.0, r"^level must lie in \(0, 1\)$"),
        ],
        ids=["empty", "level-0", "level-1"],
    )
    def test_refused(self, values, level, message):
        with pytest.raises(ValueError, match=message):
            critical_value(values, level)


class TestRunTest:
    def test_q4_never_rejects_at_ten_percent(self, rng, group_cache):
        group = group_cache(4)
        for _ in range(8):
            data = random_dataset(rng, q=4, d=2)
            c = random_contrast(rng, 2)
            res = run_test(data, LinearHypothesis(contrast=c, value=0.0), 0.1, group)
            assert not res.reject
            assert res.p_value >= 2.0 / 16.0

    def test_q5_strong_effect_attains_floor(self, rng, group_cache):
        data = random_dataset(rng, q=5, d=1, size_lo=20, size_hi=30)
        # huge shift: every cluster estimate lands far from the null
        shifted = np.asarray(data.outcomes) + 50.0 * np.asarray(data.covariates)[:, 0]
        strong = canonicalize(data.row_labels(), shifted, data.covariates)
        res = run_test(strong, LinearHypothesis(contrast=[1.0], value=0.0), 0.1, group_cache(5))
        assert res.p_value == 2.0 / 32.0
        assert res.reject

    def test_minimal_statistic_pvalue_one(self, group_cache):
        res = run_test_from_scores(np.array([-2.0, 2.0]), 0.3, group_cache(2))
        assert res.p_value == 1.0
        assert not res.reject

    def test_routes_agree(self, rng, group_cache):
        for _ in range(6):
            q = int(rng.integers(3, 9))
            d = int(rng.integers(1, 4))
            data = random_dataset(rng, q=q, d=d)
            c = random_contrast(rng, d)
            h = LinearHypothesis(contrast=c, value=float(rng.standard_normal()))
            g = group_cache(q)
            restricted = scores_via_restricted(data, h)
            assert (
                run_test(data, h, 0.1, g).p_value
                == run_test_from_scores(restricted, 0.1, g).p_value
            )

    def test_studentization_invariance(self, rng, group_cache):
        for q in range(5, 11):
            data = random_dataset(rng, q=q, d=2)
            c = random_contrast(rng, 2)
            h = LinearHypothesis(contrast=c, value=0.3)
            g = group_cache(q)
            plain = run_test(data, h, 0.07, g, variant="unstudentized")
            stud = run_test(data, h, 0.07, g, variant="studentized")
            assert plain.p_value == stud.p_value

    def test_sign_symmetry_exhaustive(self, rng, group_cache):
        g = group_cache(6)
        s = rng.standard_normal(6)
        p_pos = run_test_from_scores(s, 0.1, g).p_value
        p_neg = run_test_from_scores(-s, 0.1, g).p_value
        assert p_pos == p_neg

    def test_scale_invariance(self, rng, group_cache):
        g = group_cache(7)
        s = rng.standard_normal(7)
        base = run_test_from_scores(s, 0.1, g)
        for kappa in (1e-6, 0.5, 3.0, 1e7):
            scaled = run_test_from_scores(kappa * s, 0.1, g)
            assert scaled.p_value == base.p_value
            assert scaled.reject == base.reject

    def test_pvalue_count_is_integer(self, rng, group_cache):
        g = group_cache(8)
        for _ in range(5):
            res = run_test_from_scores(rng.standard_normal(8), 0.05, g)
            count = res.p_value * g.size
            assert count == round(count)
            assert 2 <= count <= g.size

    def test_sampled_group_provenance(self, rng):
        group = SignGroup(12, "sampled", seed=42, draws=500)
        res = run_test_from_scores(rng.standard_normal(12), 0.05, group)
        assert res.group.mode == "sampled"
        assert res.group.seed == 42
        assert res.group.draws == 500


class TestResultValidation:
    def test_reject_is_derived(self):
        # reject reads the tie-snapped p-value alone: p <= alpha
        group = SignGroup(4, "exhaustive")
        at = RandTestResult(np.float64(2.0), 2, 0.125, 0.125, group)
        assert at.reject is True
        assert type(at.statistic) is float and type(at.critical_value) is float
        assert RandTestResult(3.0, 2.0, 0.25, 0.2, group).reject is False
        assert RandTestResult(2.0, 2.0, 0.1875, 0.2, group).reject is True

    def test_pvalue_floor(self):
        with pytest.raises(ValueError):
            RandTestResult(
                statistic=3.0,
                critical_value=2.0,
                p_value=1.0 / 16.0,
                alpha=0.1,
                group=SignGroup(4, "exhaustive"),
            )

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            RandTestResult(
                statistic=1.0,
                critical_value=2.0,
                p_value=0.5,
                alpha=1.0,
                group=SignGroup(4, "exhaustive"),
            )


class TestTieSnapping:
    def test_nearby_values_count_as_ties(self):
        stats = np.array([1.0, 1.0 - 1e-14, 0.5])
        assert pvalue_from_statistics(stats, 1.0) == pytest.approx(2.0 / 3.0)

    def test_distant_values_do_not(self):
        stats = np.array([1.0, 1.0 - 1e-6, 0.5])
        assert pvalue_from_statistics(stats, 1.0) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("k", [-1000, -200, 200, 1000])
    def test_tolerance_follows_the_largest_statistic(self, k):
        # the snap is 1e-12 times the row's largest statistic, so it scales with the row
        stats = np.ldexp(np.array([1.0, 1.0 - 1e-14, 4.0, 0.5]), k)
        assert pvalue_from_statistics(stats, stats[0]) == 0.75
        assert pvalue_from_statistics(stats[None], stats[:1]).tolist() == [0.75]


class TestMemory:
    @pytest.mark.parametrize("variant", ["unstudentized", "studentized"])
    def test_sampled_test_holds_nine_bytes_per_draw(self, variant):
        # the (draws,) means and one comparison mask; the critical value is
        # taken by partitioning the means in place, with no copy
        q, draws = 8, 10**6
        group = SignGroup(q, "sampled", seed=3, draws=draws)
        scores = np.random.default_rng(3).standard_normal(q)
        chunk = groups._CHUNK_ROWS * (3 * q + 48)
        tracemalloc.start()
        try:
            run_test_from_scores(scores, 0.05, group, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * draws < peak <= 9 * draws + chunk
