"""Estimation layer: per-cluster fits and weighted scores, and the restricted-route oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artcluster import (
    ClusteredDataset,
    IdentificationFailure,
    LinearHypothesis,
    canonicalize,
    fit_per_cluster,
    scores_from_estimates,
)
from artcluster.estimation import RCOND_THRESHOLD, ClusterEstimates, fit_clusters, lstsq_stack
from tests.conftest import random_contrast, random_dataset
from tests.oracles import (
    SingularFullGram,
    bits,
    fit_loop,
    fit_restricted,
    gram_svd_rcond,
    scores_via_restricted,
)


def assert_restricted_route_holds(data, h):
    """beta_r is finite and meets the constraint, and the score routes agree as in criterion 1."""
    beta_r = fit_restricted(data, h)
    beta_hat = np.linalg.lstsq(data.covariates, data.outcomes, rcond=None)[0]
    terms = float(np.abs(h.contrast) @ (np.abs(beta_hat) + np.abs(beta_hat - beta_r)))
    assert np.all(np.isfinite(beta_r))
    assert abs(float(h.contrast @ beta_r) - h.value) <= 1e-10 * max(abs(h.value), terms)
    s_est = scores_from_estimates(fit_per_cluster(data), h)
    scale = max(1.0, float(np.max(np.abs(s_est))))
    assert np.allclose(scores_via_restricted(data, h), s_est, rtol=1e-9, atol=1e-11 * scale)


class TestFitPerCluster:
    def test_perfect_fit(self):
        z = np.array([1.0, 2.0, 3.0, -1.0])
        data = canonicalize(
            ["a"] * 4 + ["b"] * 4,
            np.concatenate([2.0 * z, -0.5 * np.ones(4)]),
            np.concatenate([z, np.ones(4)]).reshape(-1, 1),
        )
        est = fit_per_cluster(data)
        assert est.betas[0, 0] == pytest.approx(2.0, abs=1e-12)
        a = data.cluster_slice(0)
        rss = np.sum((data.outcomes[a] - data.covariates[a] @ est.betas[0]) ** 2)
        assert rss == pytest.approx(0.0, abs=1e-20)

    def test_within_cluster_collinearity_fails(self):
        # intercept plus a covariate that is constant inside each cluster
        rng = np.random.default_rng(0)
        n_j = 10
        Z = np.column_stack(
            [
                np.ones(2 * n_j),
                np.repeat([1.0, 0.0], n_j),  # varies across, not within
                rng.standard_normal(2 * n_j),
            ]
        )
        y = rng.standard_normal(2 * n_j)
        data = canonicalize(np.repeat(["t", "c"], n_j), y, Z)
        with pytest.raises(IdentificationFailure) as err:
            fit_per_cluster(data)
        assert err.value.label == "t"
        assert err.value.rcond < 1e-10

    def test_too_few_rows_fail(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((5, 3))
        data = canonicalize(["a", "a", "b", "b", "b"], rng.standard_normal(5), Z)
        with pytest.raises(IdentificationFailure):
            fit_per_cluster(data)  # cluster "a" has 2 rows for 3 covariates

    def test_matches_normal_equation_oracle(self, rng):
        # explicit-inverse oracle on a random 30x3 cluster
        Z = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        other = rng.standard_normal((10, 3))
        data = canonicalize(
            ["x"] * 30 + ["y"] * 10,
            np.concatenate([y, rng.standard_normal(10)]),
            np.vstack([Z, other]),
        )
        est = fit_per_cluster(data)
        oracle = np.linalg.inv(Z.T @ Z) @ (Z.T @ y)
        assert np.allclose(est.betas[0], oracle, rtol=1e-9)

    def test_linear_in_outcome_scale(self, rng):
        data = random_dataset(rng, q=5, d=3)
        est = fit_per_cluster(data)
        scaled = canonicalize(data.row_labels(), 2.5 * data.outcomes, data.covariates)
        est_scaled = fit_per_cluster(scaled)
        assert np.allclose(est_scaled.betas, 2.5 * est.betas, rtol=1e-10)


class TestClusterEstimates:
    @pytest.mark.parametrize(
        "betas, sizes, message",
        [
            (np.ones(3), [1, 1, 1], r"^betas must be \(q, d_z\)$"),
            (np.ones((3, 1)), [1, 1], r"^per-cluster arrays must align$"),
            ([[1.0], [np.inf], [0.0]], [1, 1, 1],
             r"^cluster coefficient estimates must be finite$"),
        ],
        ids=["1-d", "misaligned", "non-finite"],
    )
    def test_construction_refused(self, betas, sizes, message):
        with pytest.raises(ValueError, match=message):
            ClusterEstimates(betas=betas, sizes=sizes, labels=("a", "b", "c"))


class TestFitRestricted:
    def test_binding_free_restriction(self, rng):
        data = random_dataset(rng, q=4, d=3)
        beta_hat, _, _, _ = np.linalg.lstsq(data.covariates, data.outcomes, rcond=None)
        c = random_contrast(rng, 3)
        h = LinearHypothesis(contrast=c, value=float(c @ beta_hat))
        beta_r = fit_restricted(data, h)
        assert np.array_equal(beta_r, beta_hat)

    def test_collinear_covariates_refused(self):
        # the second column is twice the first: A = Z'Z has rank 1
        Z = np.column_stack([np.ones(8), np.full(8, 2.0)])
        data = canonicalize(np.repeat([1, 2], 4), np.arange(8.0), Z)
        with pytest.raises(SingularFullGram, match="^full-sample Gram matrix is numerically "):
            fit_restricted(data, LinearHypothesis(contrast=[1.0, 0.0], value=0.0))

    @pytest.mark.parametrize("scale", [1e8, 1e16])
    def test_constraint_met_in_large_units(self, scale):
        # with the outcome of order 1e16, the projection step's rounding
        # leaves c'beta_r about 0.4 from the null value 0: a miss of 6e-17
        # relative to the terms of c'beta_r, which set the tolerance
        t = np.arange(20.0)
        Z = np.column_stack([np.ones(20), t, t * t])
        h = LinearHypothesis(contrast=[1.0, 1.0, 1.0], value=0.0)
        unit = fit_restricted(canonicalize(np.repeat([1, 2, 3, 4], 5), np.sin(t), Z), h)
        data = canonicalize(np.repeat([1, 2, 3, 4], 5), scale * np.sin(t), Z)
        assert np.allclose(fit_restricted(data, h), scale * unit, rtol=1e-9)

    def test_huge_contrast_answered(self):
        # c'A^{-1}c = 1e300 / 2.8e-31 would overflow; the contrast is scaled by a
        # power of two first, so the projection meets the constraint
        z = 1e-16 * np.array([1.0, 2.0, -1.5, 0.5, 3.0, -2.0, 1.0, 2.5])
        data = canonicalize(np.repeat([1, 2], 4), np.arange(1.0, 9.0), z[:, None])
        assert_restricted_route_holds(data, LinearHypothesis(contrast=[1e150], value=0.0))

    def test_single_coefficient_is_value_over_contrast(self):
        # with one coefficient the constraint pins beta_r = value / c; on this
        # z ~ 1e-16 instance the projection cancelled, to 0.0 and to 2.0
        z = 1e-16 * np.array([1.0, 2.0, -1.5, 0.5, 3.0, -2.0, 1.0, 2.5])
        data = canonicalize(np.repeat([1, 2], 4), np.arange(1.0, 9.0), z[:, None])
        for c, value in ((3.0, 1.0), (1e150, 0.0)):
            beta_r = fit_restricted(data, LinearHypothesis(contrast=[c], value=value))
            assert bits(beta_r) == bits([value / c])

    # contrast and value times 2^k give the same scaled constraint, so the same bits
    @pytest.mark.parametrize("k", [-900, -600, -300, -1, 1, 300, 600, 900])
    def test_constraint_scale_keeps_bits(self, rng, k):
        data = random_dataset(rng, q=5, d=3)
        c, value = random_contrast(rng, 3), float(rng.standard_normal())
        want = fit_restricted(data, LinearHypothesis(contrast=c, value=value))
        got = fit_restricted(data, LinearHypothesis(contrast=np.ldexp(c, k),
                                                    value=math.ldexp(value, k)))
        assert np.array_equal(bits(got), bits(want))

    def test_overflowing_scaled_value_refused(self, rng):
        # c'beta = 1 with c = (5e-324, 0) needs beta_0 = 2^1074: the value
        # scaled with the contrast overflows, and so does the step
        data = random_dataset(rng, q=6, d=2)
        h = LinearHypothesis(contrast=[5e-324, 0.0], value=1.0)
        for call in (fit_restricted, scores_via_restricted):
            with pytest.raises(ValueError, match="^restricted fit must be finite$"):
                call(data, h)

    # covariates times 2^-539 or less: A = Z'Z underflows, and solve(A, c)
    # ended in numpy's "Singular matrix"
    @pytest.mark.parametrize("k", [-539, -700])
    def test_underflowing_gram_refused(self, rng, k):
        data = random_dataset(rng, q=6, d=2)
        tiny = ClusteredDataset(data.outcomes, np.ldexp(data.covariates, k), data.sizes,
                                data.labels)
        h = LinearHypothesis(contrast=[0.0, 1.0], value=0.0)
        for call in (fit_restricted, scores_via_restricted):
            with pytest.raises(ValueError, match="^the full-sample Gram matrix underflows "
                                                 "float64; rescale the covariates$"):
                call(tiny, h)

    def test_outcome_in_large_units_accepted(self, rng):
        data = random_dataset(rng, q=5, d=3)
        scaled = canonicalize(data.row_labels(), 1e10 * data.outcomes, data.covariates)
        for _ in range(10):
            h = LinearHypothesis(contrast=random_contrast(rng, 3), value=0.0)
            assert np.allclose(fit_restricted(scaled, h), 1e10 * fit_restricted(data, h),
                               rtol=1e-9)

    def test_overflowing_gram_refused_without_warning(self):
        # the covariate x * 2^600 has a finite SVD, but Z'Z overflows
        rng = np.random.default_rng(7)
        data = canonicalize(np.repeat(np.arange(8), 5), rng.standard_normal(40),
                            2.0**600 * rng.standard_normal((40, 1)))
        h = LinearHypothesis(contrast=[1.0], value=0.0)
        for call in (fit_restricted, scores_via_restricted):
            with pytest.raises(ValueError, match="^the full-sample Gram matrix overflows float64; "
                                                 "rescale the outcome or the covariates$"):
                call(data, h)

    def test_single_coefficient_pinned(self, rng):
        data = random_dataset(rng, q=3, d=1)
        beta_r = fit_restricted(data, LinearHypothesis(contrast=[1.0], value=0.0))
        assert beta_r.shape == (1,)
        assert beta_r[0] == 0.0
        assert np.array_equal(data.outcomes - data.covariates @ beta_r, data.outcomes)

    def test_constraint_satisfied(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 5))
            data = random_dataset(rng, q=4, d=d)
            c = random_contrast(rng, d)
            lam = float(rng.standard_normal())
            beta_r = fit_restricted(data, LinearHypothesis(contrast=c, value=lam))
            assert abs(float(c @ beta_r) - lam) <= 1e-10 * max(1.0, abs(lam))

    def test_minimizes_on_constraint_plane(self, rng):
        # grid-search oracle over the constraint hyperplane around beta_r
        data = random_dataset(rng, q=4, d=3, size_hi=40)
        c = random_contrast(rng, 3)
        h = LinearHypothesis(contrast=c, value=0.7)
        beta_r = fit_restricted(data, h)

        def rss(beta):
            r = data.outcomes - data.covariates @ beta
            return float(r @ r)

        base = rss(beta_r)
        # orthonormal basis of the feasible directions {v : c'v = 0}
        _, _, vt = np.linalg.svd(c.reshape(1, -1))
        tangent = vt[1:]
        steps = np.linspace(-0.5, 0.5, 11)
        for v in tangent:
            for t1 in steps:
                for v2 in tangent:
                    for t2 in steps[::3]:
                        candidate = beta_r + t1 * v + t2 * v2
                        assert base <= rss(candidate) + 1e-9

    def test_first_order_optimality(self, rng):
        # finite differences of the objective vanish along feasible directions
        data = random_dataset(rng, q=5, d=4)
        c = random_contrast(rng, 4)
        h = LinearHypothesis(contrast=c, value=-0.2)
        beta_r = fit_restricted(data, h)

        def rss(beta):
            r = data.outcomes - data.covariates @ beta
            return float(r @ r)

        _, _, vt = np.linalg.svd(c.reshape(1, -1))
        scale = rss(beta_r) + 1.0
        step = 1e-6
        for v in vt[1:]:
            deriv = (rss(beta_r + step * v) - rss(beta_r - step * v)) / (2 * step)
            assert abs(deriv) < 1e-4 * scale

    def test_tiny_contrast_answered(self):
        # a diagonal full-sample Gram matrix and contrast (1e-160, 0) would make
        # c'A^{-1}c denormal, and (1e-170, 0) would make it 0; scaled by a power
        # of two first, the projection meets the constraint
        Z = np.tile([[1.0, 0.0], [0.0, 1.0]], (8, 1))
        data = canonicalize(np.repeat([1, 2, 3, 4], 4), np.arange(16.0), Z)
        for tiny in (1e-160, 1e-170):
            assert_restricted_route_holds(data, LinearHypothesis(contrast=[tiny, 0.0], value=1.0))


class TestClusterScores:
    def test_zero_residuals_zero_scores(self, rng):
        # outcomes exactly linear with c'beta = lambda: restricted fit is exact
        Z = rng.standard_normal((40, 2))
        beta = np.array([0.5, -1.0])
        data = canonicalize(np.repeat([1, 2, 3, 4], 10), Z @ beta, Z)
        c = np.array([1.0, 0.0])
        h = LinearHypothesis(contrast=c, value=float(c @ beta))
        scores = scores_via_restricted(data, h)
        assert np.allclose(scores, 0.0, atol=1e-9)

    def test_equals_centered_estimates(self, rng):
        # the restricted-score and centered-estimate routes coincide
        for _ in range(12):
            q = int(rng.integers(3, 11))
            d = int(rng.integers(1, 5))
            data = random_dataset(rng, q=q, d=d)
            c = random_contrast(rng, d)
            lam = float(rng.standard_normal())
            h = LinearHypothesis(contrast=c, value=lam)
            est = fit_per_cluster(data)
            via_scores = scores_via_restricted(data, h)
            direct = np.sqrt(data.sizes) * (est.betas @ c - lam)
            assert np.allclose(via_scores, direct, rtol=1e-9, atol=1e-12)

    # one cluster's covariates times 2^-538 or less: its Gram matrix underflows,
    # and solving with it ended in numpy's "Singular matrix"
    @pytest.mark.parametrize("k", [-538, -700])
    def test_underflowing_cluster_gram_refused(self, rng, k):
        data = random_dataset(rng, q=6, d=2)
        Z = data.covariates.copy()
        Z[data.cluster_slice(2)] = np.ldexp(Z[data.cluster_slice(2)], k)
        tiny = ClusteredDataset(data.outcomes, Z, data.sizes, data.labels)
        h = LinearHypothesis(contrast=[0.0, 1.0], value=0.0)
        with pytest.raises(ValueError, match=f"^the Gram matrix of cluster {data.labels[2]!r} "
                                             "underflows float64; rescale the covariates$"):
            scores_via_restricted(tiny, h)

    def test_singular_cluster_refused_as_by_per_cluster_fit(self):
        # intercept plus a covariate constant inside cluster "b"
        x = np.array([0.0, 1.0, 2.0, 3.0, 5.0, 5.0, 5.0, 5.0, 1.0, 4.0, 2.0, 8.0])
        Z = np.column_stack([np.ones(12), x])
        data = canonicalize(np.repeat(["a", "b", "c"], 4), np.sin(np.arange(12.0)), Z)
        with pytest.raises(IdentificationFailure) as restricted:
            scores_via_restricted(data, LinearHypothesis(contrast=[0.0, 1.0], value=0.0))
        with pytest.raises(IdentificationFailure) as per_cluster:
            fit_per_cluster(data)
        assert restricted.value.label == "b"
        assert str(restricted.value) == str(per_cluster.value)

    def test_matches_explicit_inverse_oracle(self, rng):
        data = random_dataset(rng, q=5, d=3)
        c = random_contrast(rng, 3)
        h = LinearHypothesis(contrast=c, value=0.1)
        got = scores_via_restricted(data, h)
        residuals = data.outcomes - data.covariates @ fit_restricted(data, h)
        for j in range(5):
            s = data.cluster_slice(j)
            Z_j = data.covariates[s]
            n_j = Z_j.shape[0]
            gram = Z_j.T @ Z_j / n_j
            oracle = c @ np.linalg.inv(gram) @ (Z_j.T @ residuals[s]) / np.sqrt(n_j)
            assert got[j] == pytest.approx(oracle, rel=1e-9)


class TestFitClusters:
    """The stacked fitter behind ``fit_per_cluster`` and the Monte Carlo studies."""

    @staticmethod
    def stack(rng, reps, sizes, d):
        n = int(np.sum(sizes))
        y = rng.standard_normal((reps, n))
        Z = np.ones((reps, n, d))
        Z[:, :, 1:] = rng.standard_normal((reps, n, d - 1))
        return y, Z, np.concatenate([[0], np.cumsum(sizes)])

    def test_stack_matches_one_dataset_at_a_time(self, rng):
        sizes = np.array([7, 12, 5, 30])
        y, Z, offsets = self.stack(rng, 5, sizes, 3)
        betas = fit_clusters(y, Z, offsets, ("a", "b", "c", "d"))
        for r in range(5):
            assert np.array_equal(bits(betas[r]), bits(fit_loop(y[r], Z[r], sizes)))

    def test_cli_sized_clusters_match_loop(self, rng):
        # thousands of rows per cluster, d_z = 4, as a CSV run would give
        sizes = rng.integers(1000, 4001, size=6)
        n = int(sizes.sum())
        Z = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        y = Z @ rng.standard_normal(4) + rng.standard_normal(n)
        data = canonicalize(np.repeat(np.arange(6), sizes), y, Z)
        est = fit_per_cluster(data)
        want = fit_loop(data.outcomes, data.covariates, data.sizes)
        assert np.array_equal(bits(est.betas), bits(want))

    def test_first_failure_in_dataset_then_cluster_order(self, rng):
        # dataset 0 is singular in cluster 2 and dataset 1 in cluster 0:
        # fitting the datasets one at a time stops at dataset 0's cluster 2
        sizes = np.array([6, 6, 6])
        y, Z, offsets = self.stack(rng, 2, sizes, 2)
        Z[0, 12:18, 1] = 4.0
        Z[1, 0:6, 1] = -1.0
        labels = ("a", "b", "c")
        with pytest.raises(IdentificationFailure) as err:
            fit_clusters(y, Z, offsets, labels)
        with pytest.raises(IdentificationFailure) as loop:
            fit_loop(y[0], Z[0], sizes)
        assert err.value.label == labels[loop.value.label] == "c"
        assert err.value.rcond == loop.value.rcond
        data = canonicalize([lab for lab in labels for _ in range(6)], y[0], Z[0])
        with pytest.raises(IdentificationFailure) as single:
            fit_per_cluster(data)
        assert str(single.value) == str(err.value)

    @settings(max_examples=150, deadline=None)
    @given(
        reps=st.integers(1, 12),
        d=st.integers(1, 4),
        extra_rows=st.lists(st.integers(1, 30), min_size=2, max_size=6),
        law=st.sampled_from(["normal", "lognormal"]),
        scale_exp=st.integers(-8, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_fit_matches_public_lstsq_bitwise(
        self, reps, d, extra_rows, law, scale_exp, seed
    ):
        # n_j runs down to d_z + 1 rows
        rng = np.random.default_rng(seed)
        sizes = np.array(extra_rows) + d
        n = int(sizes.sum())
        y = rng.standard_normal((reps, n)) * 10.0**scale_exp
        Z = np.ones((reps, n, d))
        draws = rng.standard_normal((reps, n, d - 1))
        Z[:, :, 1:] = draws if law == "normal" else np.exp(draws)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        betas = fit_clusters(y, Z, offsets, range(len(sizes)))
        for r in range(reps):
            for j in range(len(sizes)):
                rows = slice(offsets[j], offsets[j + 1])
                want = np.linalg.lstsq(Z[r, rows], y[r, rows], rcond=None)[0]
                assert np.array_equal(bits(betas[r, j]), bits(want))

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lstsq_stack_returns_public_lstsq_bits(self, shape, seed):
        # solutions and singular values; n < d leaves min(n, d) singular values
        reps, n, d = shape
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((reps, n, d))
        y = rng.standard_normal((reps, n))
        x, sv = lstsq_stack(Z, y)
        for r in range(reps):
            want = np.linalg.lstsq(Z[r], y[r], rcond=None)
            assert np.array_equal(bits(x[r]), bits(want[0]))
            assert np.array_equal(bits(sv[r]), bits(want[3]))

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 4),
        extra_rows=st.integers(0, 12),
        decades=st.floats(-0.5, 0.5),
        shift=st.integers(-200, 200),
        exponents=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_identification_agrees_with_gram_svd_rule(
        self, d, extra_rows, decades, shift, exponents, seed
    ):
        # a cluster with singular values from 1 to sqrt(RCOND_THRESHOLD * 10^decades),
        # its columns scaled by 2^(shift + e_k), next to a well-conditioned cluster
        rng = np.random.default_rng(seed)
        n = d + extra_rows
        U, _ = np.linalg.qr(rng.standard_normal((n, d)))
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        s = np.geomspace(1.0, np.sqrt(RCOND_THRESHOLD * 10.0**decades), d)
        Z_j = (U * s) @ V.T * 2.0 ** (shift + np.array(exponents[:d]))
        Z = np.vstack([Z_j, rng.standard_normal((d + 2, d))])
        y = rng.standard_normal(Z.shape[0])
        want = gram_svd_rcond(Z_j)
        assume(abs(want - RCOND_THRESHOLD) > 1e-4 * RCOND_THRESHOLD)
        offsets = np.array([0, n, Z.shape[0]])
        if want < RCOND_THRESHOLD:
            with pytest.raises(IdentificationFailure) as err:
                fit_clusters(y[None], Z[None], offsets, ("a", "b"))
            assert err.value.label == "a"
        else:
            fit_clusters(y[None], Z[None], offsets, ("a", "b"))

    def test_svd_failure_raises_numpy_error(self, rng):
        # canonicalize refuses a NaN before any fit, so the stacked call
        # is fed one directly; fit_clusters would raise the same error
        Z = rng.standard_normal((3, 8, 2))
        y = rng.standard_normal((3, 8))
        Z[1, 4, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError) as public:
            np.linalg.lstsq(Z[1], y[1], rcond=None)
        with pytest.raises(np.linalg.LinAlgError) as stacked:
            lstsq_stack(Z, y)
        assert str(stacked.value) == str(public.value)
        assert str(stacked.value) == "SVD did not converge in Linear Least Squares"
