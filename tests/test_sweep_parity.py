"""Fast sweeps and order statistics against the reference oracles, bit for bit.

The exhaustive group is swept by prefix-sum doubling and never holds its
sign matrix, +-identity rows are read off the swept weights, a sampled
group regenerates its rows from the seed in chunks, interval bounds are
the min and max of two crossings, and quantiles come from
``np.partition``.  Each must reproduce the reference
in ``tests/oracles.py`` exactly, compared on the float64 bit patterns.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artcluster import (
    LinearHypothesis,
    MultiHypothesis,
    critical_value,
    fit_per_cluster,
    run_test,
    run_wald_test,
)
from artcluster import kernels
from artcluster.estimation import ClusterEstimates
from artcluster.groups import SignGroup, exhaustive_group, sampled_group
from artcluster.intervals import (
    IntervalInputs,
    _rounding_tol,
    interval,
    interval_inputs,
    per_group_bounds,
    pvalue_profile,
)
from artcluster.randtest import _wald_ingredients
from tests.conftest import random_contrast, random_dataset
from tests.oracles import (
    bit_expansion_signs,
    bits,
    column_loop_means,
    interval_bounds_branches,
    pm_iota_mask,
    sampled_signs,
    sort_critical_value,
    sort_interval_endpoints,
    wald_quadratic_loop,
)

# signed zeros and repeated entries, mixed with arbitrary moderate floats
ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 0.1]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
)


@lru_cache(maxsize=None)
def oracle_signs(q: int) -> np.ndarray:
    return bit_expansion_signs(q)


def vectors(q_lo=2, q_hi=14):
    return st.integers(q_lo, q_hi).flatmap(
        lambda q: st.lists(ENTRY, min_size=q, max_size=q).map(np.array)
    )


def matrices(q_lo=2, q_hi=14):
    return st.tuples(st.integers(q_lo, q_hi), st.integers(1, 4)).flatmap(
        lambda qp: st.lists(
            st.lists(ENTRY, min_size=qp[1], max_size=qp[1]), min_size=qp[0], max_size=qp[0]
        ).map(np.array)
    )


def assert_same_selection(got: float, expected: float, pool: np.ndarray) -> None:
    """Equal bits, except that +0.0 and -0.0 tie when the pool holds both."""
    zeros = pool[pool == 0.0]
    if np.signbit(zeros).any() and not np.signbit(zeros).all():
        assert got == expected
    else:
        assert bits(got) == bits(expected)


class TestDoublingSweep:
    @settings(max_examples=120, deadline=None)
    @given(values=vectors())
    def test_vector_matches_column_loop(self, values):
        expected = column_loop_means(oracle_signs(values.shape[0]), values)
        assert np.array_equal(bits(kernels.exhaustive_means(values)), bits(expected))
        assert np.array_equal(bits(exhaustive_group(values.shape[0]).sweep(values)), bits(expected))

    @settings(max_examples=80, deadline=None)
    @given(values=matrices())
    def test_matrix_matches_column_loop(self, values):
        expected = column_loop_means(oracle_signs(values.shape[0]), values)
        got = exhaustive_group(values.shape[0]).sweep(values)
        assert got.shape == expected.shape
        assert np.array_equal(bits(got), bits(expected))

    def test_q20_matches_column_loop(self):
        rng = np.random.default_rng(20)
        values = rng.standard_normal(20)
        values[[3, 7]] = 0.0, -0.0
        values[12] = values[11]
        group = exhaustive_group(20)
        expected = column_loop_means(bit_expansion_signs(20), values)
        assert np.array_equal(bits(group.sweep(values)), bits(expected))

    @settings(max_examples=40, deadline=None)
    @given(values=st.one_of(vectors(2, 8), matrices(2, 8)), seed=st.integers(0, 2**31))
    def test_sampled_sweep_matches_column_loop(self, values, seed):
        group = sampled_group(values.shape[0], draws=300, seed=seed)
        expected = column_loop_means(sampled_signs(values.shape[0], 300, seed), values)
        assert np.array_equal(bits(group.sweep(values)), bits(expected))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_group(4).sweep(np.ones(5))
        with pytest.raises(ValueError):
            sampled_group(4, draws=10, seed=0).sweep(np.ones(3))


class TestWald:
    @pytest.mark.parametrize("q,p", [(5, 2), (9, 3), (14, 4)])
    def test_quadratic_matches_loop(self, q, p):
        rng = np.random.default_rng(q * 10 + p)
        scores = rng.standard_normal((q, p))
        sigma_inv = np.linalg.inv(scores.T @ scores / q)
        sampled = sampled_group(q, draws=500, seed=p)
        for group, signs in (
            (exhaustive_group(q), oracle_signs(q)),
            (sampled, sampled_signs(q, 500, p)),
        ):
            got = kernels.group_wald_quadratic(group.sweep(scores), sigma_inv, q)
            expected = wald_quadratic_loop(signs, scores, sigma_inv)
            assert np.array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_run_wald_test_matches_loop(self, rng, mode):
        data = random_dataset(rng, q=9, d=3)
        mh = MultiHypothesis(restriction=rng.standard_normal((2, 3)), values=rng.standard_normal(2))
        if mode == "exhaustive":
            group, signs = exhaustive_group(9), oracle_signs(9)
        else:
            group, signs = sampled_group(9, 700, seed=4), sampled_signs(9, 700, 4)
        result = run_wald_test(data, mh, 0.1, group)
        scores, sigma_inv = _wald_ingredients(fit_per_cluster(data), mh, "root_n")
        stats = wald_quadratic_loop(signs, scores, sigma_inv)
        assert bits(result.statistic) == bits(stats[0])
        assert bits(result.critical_value) == bits(sort_critical_value(stats, 0.9))


class TestLazySigns:
    """A group holds its parameters alone; its rows exist only inside the sweep."""

    @pytest.mark.parametrize("q", range(2, 17))
    def test_matches_bit_expansion(self, q):
        group = exhaustive_group(q)
        # sweeping the unit vectors gives row i scaled by 1/q: the signs of row i
        rows = np.sign(group.sweep(np.eye(q))).astype(np.int8)
        assert np.array_equal(rows, oracle_signs(q))

    def test_engine_never_builds_exhaustive_matrix(self, rng):
        data = random_dataset(rng, q=8, d=2)
        c = random_contrast(rng, 2)
        group = exhaustive_group(8)
        run_test(data, LinearHypothesis(contrast=c, value=0.0), 0.1, group)
        run_test(data, LinearHypothesis(contrast=c, value=0.0), 0.1, group, "studentized")
        mh = MultiHypothesis(restriction=rng.standard_normal((2, 2)), values=np.zeros(2))
        run_wald_test(data, mh, 0.1, group)
        inputs = interval_inputs(fit_per_cluster(data), c, group)
        ci = interval(inputs, 0.1)
        pvalue_profile(inputs, ci.lower)
        assert [f.name for f in dataclasses.fields(SignGroup)] == ["q", "mode", "seed", "draws"]
        assert vars(group) == {"q": 8, "mode": "exhaustive", "seed": None, "draws": None}


def log_uniform_inputs(group, seed):
    """IntervalInputs over sizes from 1 to 1e12, both extremes always present."""
    rng = np.random.default_rng(seed)
    sizes = np.rint(10.0 ** rng.uniform(0.0, 12.0, group.q))
    sizes[rng.permutation(group.q)[:2]] = (1.0, 1e12)
    w = np.sqrt(sizes)
    return IntervalInputs(a=group.sweep(w), b=group.sweep(w * rng.standard_normal(group.q)))


class TestPmIdentity:
    """The +-identity rows read off a(g) are the rows with all signs equal."""

    @pytest.mark.parametrize("q", range(2, 13))
    def test_exhaustive_matches_mask(self, q):
        inputs = log_uniform_inputs(exhaustive_group(q), seed=q)
        assert np.array_equal(inputs.pm_identity, pm_iota_mask(oracle_signs(q)))

    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(2, 6), draws=st.integers(2, 200), seed=st.integers(0, 2**31))
    def test_sampled_matches_mask(self, q, draws, seed):
        inputs = log_uniform_inputs(sampled_group(q, draws, seed), seed)
        assert np.array_equal(inputs.pm_identity, pm_iota_mask(sampled_signs(q, draws, seed)))

    def test_exact_where_a_tolerance_would_misfire(self):
        # no int64 sizes put a row this close, but weights 1e13 apart leave
        # row (+1, -1) only 2e-13 below a(identity): inside a 1e-12 relative
        # tolerance, yet far above the rounding of a two-term sum
        group, w = exhaustive_group(2), np.array([1e13, 1.0])
        inputs = IntervalInputs(a=group.sweep(w), b=group.sweep(w))
        assert np.array_equal(inputs.pm_identity, pm_iota_mask(oracle_signs(2)))


class TestSampledChunks:
    """Sampled rows regenerated chunk by chunk equal the one-shot draw, across chunk edges."""

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(2, 21),
        draws=st.sampled_from([2, 2**14, 2**14 + 1, 2**14 + 2, 2**14 + 3, 2 * 2**14 + 5]),
        seed=st.integers(0, 2**31),
        values_seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_shot_rows(self, q, draws, seed, values_seed):
        group, signs = sampled_group(q, draws, seed), sampled_signs(q, draws, seed)
        rng = np.random.default_rng(values_seed)
        for values in (rng.standard_normal(q), rng.standard_normal((q, 2))):
            expected = column_loop_means(signs, values)
            assert np.array_equal(bits(group.sweep(values)), bits(expected))


QUANTILE_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.0, -3.5, np.inf, -np.inf]),
    st.floats(allow_nan=False, width=64),
)


class TestPartitionQuantiles:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(QUANTILE_ENTRY, min_size=1, max_size=300).map(np.array),
        level=st.one_of(
            st.sampled_from([0.05, 0.1, 0.5, 0.9, 0.95, 1.0 / 3.0]),
            st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        ),
    )
    def test_critical_value_matches_sort(self, values, level):
        got = critical_value(values, level)
        assert_same_selection(got, sort_critical_value(values, level), values)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.integers(2, 9).flatmap(
            lambda q: st.tuples(
                st.lists(st.sampled_from([4, 9, 16, 25]), min_size=q, max_size=q),
                st.lists(
                    st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.5]), st.floats(-1e3, 1e3)),
                    min_size=q,
                    max_size=q,
                ),
            )
        ),
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.25, 0.5]),
    )
    def test_interval_matches_sort(self, data, alpha):
        sizes, cbeta = data
        q = len(sizes)
        est = ClusterEstimates(
            betas=np.array(cbeta).reshape(q, 1),
            sizes=np.array(sizes),
            grams=np.ones((q, 1, 1)),
            labels=tuple(range(q)),
        )
        inputs = interval_inputs(est, [1.0], exhaustive_group(q))
        lo_all, hi_all = per_group_bounds(inputs)
        lower, upper = sort_interval_endpoints(lo_all, hi_all, alpha)
        ci = interval(inputs, alpha)
        assert_same_selection(ci.lower, lower, np.concatenate([lo_all, hi_all]))
        assert_same_selection(ci.upper, upper, np.concatenate([lo_all, hi_all]))

    def test_interval_q20_matches_sort(self, rng):
        data = random_dataset(rng, q=20, d=2, size_hi=12)
        c = random_contrast(rng, 2)
        inputs = interval_inputs(fit_per_cluster(data), c, exhaustive_group(20))
        lo_all, hi_all = per_group_bounds(inputs)
        for alpha in (0.05, 0.1):
            lower, upper = sort_interval_endpoints(lo_all, hi_all, alpha)
            ci = interval(inputs, alpha)
            assert (bits(ci.lower), bits(ci.upper)) == (bits(lower), bits(upper))


@st.composite
def branch_instances(draw):
    """A group, one-covariate estimates and alpha for the branch-oracle parity test.

    c'beta_j are floats up to +-1e8, small integers (so duplicates) or all
    equal; sizes run from 1 to 1e12, or are all equal, which zeroes the
    slope a(g) of every balanced flip.
    """
    q = draw(st.integers(2, 12))
    if draw(st.booleans()):
        signs = oracle_signs(q)
        group = exhaustive_group(q)
    else:
        draws, seed = draw(st.integers(2, 300)), draw(st.integers(0, 2**31))
        signs = sampled_signs(q, draws, seed)
        group = sampled_group(q, draws, seed)
    floats = st.floats(-1e8, 1e8, allow_nan=False)
    kind = draw(st.sampled_from(["float", "integer", "equal"]))
    if kind == "float":
        cbeta = draw(st.lists(floats, min_size=q, max_size=q))
    elif kind == "integer":
        cbeta = [float(v) for v in draw(st.lists(st.integers(-3, 3), min_size=q, max_size=q))]
    else:
        cbeta = [draw(floats)] * q
    size = st.integers(1, 10**12)
    if draw(st.booleans()):
        sizes = [draw(size)] * q
    else:
        sizes = draw(st.lists(size, min_size=q, max_size=q))
    estimates = ClusterEstimates(
        betas=np.array(cbeta).reshape(q, 1),
        sizes=np.array(sizes),
        grams=np.ones((q, 1, 1)),
        labels=tuple(range(q)),
    )
    alpha = draw(st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.5]))
    return estimates, group, signs, alpha


class TestBranchBounds:
    """min/max of the two crossings against the sign, ratio and zero-slope branches."""

    @settings(max_examples=300, deadline=None)
    @given(instance=branch_instances())
    def test_interval_matches_branch_oracle(self, instance):
        estimates, group, signs, alpha = instance
        inputs = interval_inputs(estimates, [1.0], group)
        a, b = inputs.a, inputs.b
        expected = sort_interval_endpoints(
            *interval_bounds_branches(a, b, a[0], b[0], pm_iota_mask(signs)), alpha
        )
        ci = interval(inputs, alpha)
        cbeta = estimates.betas[:, 0]
        if np.any(cbeta != cbeta[0]):
            assert bits([ci.lower, ci.upper]).tolist() == bits(expected).tolist()
        else:
            # a point interval: rows whose crossings tie may round either
            # way, so both pairs need only contain lambda0 up to rounding
            lam0, tol = inputs.lambda0, _rounding_tol(inputs.lambda0)
            for lower, upper in ((ci.lower, ci.upper), expected):
                assert lower <= lam0 + tol and upper >= lam0 - tol
