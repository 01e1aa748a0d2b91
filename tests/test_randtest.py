"""Test engine: statistics, critical values, p-values, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artcluster import (
    DegenerateVariance,
    LinearHypothesis,
    MultiHypothesis,
    SingularSigma,
    critical_value,
    fit_per_cluster,
    run_test,
    run_wald_test,
    scores_from_estimates,
    scores_via_restricted,
)
from artcluster.groups import sampled_group
from artcluster.randtest import (
    TestResult as RandTestResult,
    pvalue_from_statistics,
    run_test_columns,
    run_test_from_scores,
)
from tests.conftest import random_contrast, random_dataset
from tests.oracles import (
    bit_expansion_signs,
    bits,
    column_loop_means,
    decision_loop,
    statistic,
    statistic_studentized,
    statistic_wald,
)


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

    def test_root_n_scaling(self, micro_estimates):
        h = LinearHypothesis(contrast=[1.0], value=2.0)
        sv = scores_from_estimates(micro_estimates, h, scaling="root_n")
        assert np.allclose(sv, np.sqrt(8.0) * np.array([-1.0, 1.0]))


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
        got = run_test_columns(s[:, None], 0.1, group_cache(7), "studentized")
        studentized = decision_loop(signs, s[:, None], 0.1, "studentized")
        assert np.array_equal(bits(got[:2]), bits(studentized[:2]))
        assert np.array_equal(bits(got[2]), bits(decision_loop(signs, s[:, None], 0.1)[2]))


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

        zero_est = ClusterEstimates(
            betas=betas, sizes=est.sizes, grams=est.grams, labels=est.labels
        )
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
        est = ClusterEstimates(betas=betas, sizes=est.sizes, grams=est.grams, labels=est.labels)
        mh = MultiHypothesis(restriction=np.eye(2), values=np.zeros(2))
        with pytest.raises(SingularSigma):
            statistic_wald(est, mh, np.ones(4, dtype=np.int8))

    def test_scalar_wald_matches_unstudentized_pvalue(self, rng, group_cache):
        data = random_dataset(rng, q=7, d=2)
        c = random_contrast(rng, 2)
        lam = float(rng.standard_normal())
        group = group_cache(7)
        plain = run_test(
            data, LinearHypothesis(contrast=c, value=lam), 0.1, group, scaling="root_n"
        )
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

    def test_product_rounding_guard(self):
        # 1000 * 0.9 must select the 900th value despite float fuzz
        values = np.arange(1000, dtype=float)
        assert critical_value(values, 0.9) == 899.0


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
        from artcluster import canonicalize

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
        group = sampled_group(12, draws=500, seed=42)
        res = run_test_from_scores(rng.standard_normal(12), 0.05, group)
        assert res.group_mode == "sampled"
        assert res.group_seed == 42
        assert res.group_draws == 500


class TestResultValidation:
    def test_reject_flag_consistency(self):
        with pytest.raises(ValueError):
            RandTestResult(
                statistic=1.0,
                critical_value=2.0,
                p_value=0.5,
                reject=True,
                alpha=0.1,
                group_size=16,
                group_mode="exhaustive",
            )

    def test_pvalue_floor(self):
        with pytest.raises(ValueError):
            RandTestResult(
                statistic=3.0,
                critical_value=2.0,
                p_value=1.0 / 16.0,
                reject=True,
                alpha=0.1,
                group_size=16,
                group_mode="exhaustive",
            )

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            RandTestResult(
                statistic=1.0,
                critical_value=2.0,
                p_value=0.5,
                reject=False,
                alpha=1.0,
                group_size=16,
                group_mode="exhaustive",
            )


class TestTieSnapping:
    def test_nearby_values_count_as_ties(self):
        stats = np.array([1.0, 1.0 - 1e-14, 0.5])
        assert pvalue_from_statistics(stats, 1.0) == pytest.approx(2.0 / 3.0)

    def test_distant_values_do_not(self):
        stats = np.array([1.0, 1.0 - 1e-6, 0.5])
        assert pvalue_from_statistics(stats, 1.0) == pytest.approx(1.0 / 3.0)
