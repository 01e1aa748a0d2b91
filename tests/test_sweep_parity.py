"""Fast sweeps and order statistics against the reference oracles, bit for bit.

The exhaustive group is swept by prefix-sum doubling and never holds its
sign matrix, +-identity rows are read off the swept weights, a sampled
group regenerates its rows from the seed in chunks, interval bounds are
the min and max of two crossings, and quantiles come from
``np.partition``.  Each must reproduce the reference
in ``tests/oracles.py`` exactly, compared on the float64 bit patterns.
"""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artcluster import (
    DegenerateVariance,
    LinearHypothesis,
    MultiHypothesis,
    critical_value,
    fit_per_cluster,
    run_test,
    run_wald_test,
)
from artcluster import kernels
from artcluster.estimation import ClusterEstimates
from artcluster.groups import SignGroup
from artcluster.intervals import (
    IntervalInputs,
    _rounding_tol,
    interval,
    interval_inputs,
)
from artcluster.randtest import _wald_ingredients, order_statistic_index, run_test_columns
from tests.conftest import random_contrast, random_dataset
from tests.oracles import (
    assert_same_selection,
    bit_expansion_signs,
    bits,
    column_loop_means,
    decision_loop,
    exhaustive_half,
    exhaustive_sweep,
    interval_bounds_branches,
    pm_iota_mask,
    pvalue_profile,
    sampled_signs,
    sort_critical_value,
    sort_interval_endpoints,
    wald_quadratic_loop,
    wald_quadratic_rows,
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


def group_last(means: np.ndarray) -> np.ndarray:
    """The oracle's (m,) or (m, p) means in the sweep's layout, (m,) or (p, m)."""
    return np.moveaxis(means, 0, -1)


def oracle_means(group, values) -> np.ndarray:
    """The rows a sweep of ``group`` returns, from the sign-matrix oracle.

    An exhaustive group's are the first half of the whole group's rows.
    """
    if group.mode == "exhaustive":
        return group_last(exhaustive_half(column_loop_means(oracle_signs(group.q), values)))
    return group_last(column_loop_means(sampled_signs(group.q, group.draws, group.seed), values))


class TestDoublingSweep:
    @settings(max_examples=120, deadline=None)
    @given(values=vectors())
    def test_vector_matches_column_loop(self, values):
        group = SignGroup(values.shape[0], "exhaustive")
        expected = oracle_means(group, values)
        assert np.array_equal(bits(group.sweep(values)), bits(expected))
        # doubling on from the sums over any number of leading rows
        q = values.shape[0]
        for lead in range(1, q + 1):
            head = kernels.exhaustive_sums(values[:lead])
            got = kernels.continue_doubling(head, values[lead:]) / q
            assert np.array_equal(bits(got), bits(expected)), f"lead={lead}"

    @settings(max_examples=80, deadline=None)
    @given(values=matrices(), statistics=st.integers(1, 2**14))
    def test_chunks_match_column_loop(self, values, statistics):
        """Every head, from one row to the whole sweep, and every chunk width give the same bits."""
        group = SignGroup(values.shape[0], "exhaustive")
        chunks = list(group.sweep_chunks(values, statistics))
        width = max(1, statistics // group.rows)
        assert [len(c) for c in chunks[:-1]] == [width] * (len(chunks) - 1)
        assert all(c.flags.c_contiguous for c in chunks)
        got = np.concatenate(chunks)
        assert np.array_equal(bits(got), bits(oracle_means(group, values)))

    @settings(max_examples=80, deadline=None)
    @given(values=matrices())
    def test_matrix_matches_column_loop(self, values):
        group = SignGroup(values.shape[0], "exhaustive")
        expected = oracle_means(group, values)
        got = group.sweep(values)
        assert got.shape == expected.shape == (values.shape[1], group.rows)
        assert np.array_equal(bits(got), bits(expected))

    def test_q20_matches_column_loop(self):
        rng = np.random.default_rng(20)
        values = rng.standard_normal(20)
        values[[3, 7]] = 0.0, -0.0
        values[12] = values[11]
        group = SignGroup(20, "exhaustive")
        expected = exhaustive_half(column_loop_means(bit_expansion_signs(20), values))
        assert np.array_equal(bits(group.sweep(values)), bits(expected))

    @settings(max_examples=40, deadline=None)
    @given(values=st.one_of(vectors(2, 8), matrices(2, 8)), seed=st.integers(0, 2**31))
    def test_sampled_sweep_matches_column_loop(self, values, seed):
        group = SignGroup(values.shape[0], "sampled", seed=seed, draws=300)
        assert np.array_equal(bits(group.sweep(values)), bits(oracle_means(group, values)))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            SignGroup(4, "exhaustive").sweep(np.ones(5))
        with pytest.raises(ValueError):
            SignGroup(4, "sampled", seed=0, draws=10).sweep(np.ones(3))
        with pytest.raises(ValueError, match="values have 0 entries"):
            SignGroup(4, "exhaustive").sweep(np.ones(0))


class TestWald:
    @pytest.mark.parametrize("q,p", [(5, 2), (9, 3), (14, 4)])
    def test_quadratic_matches_loop(self, q, p):
        rng = np.random.default_rng(q * 10 + p)
        scores = rng.standard_normal((q, p))
        sigma_inv = np.linalg.inv(scores.T @ scores / q)
        sampled = SignGroup(q, "sampled", seed=p, draws=500)
        exhaustive = SignGroup(q, "exhaustive")
        whole = wald_quadratic_loop(oracle_signs(q), scores, sigma_inv)
        for group, expected in (
            (exhaustive, exhaustive_half(whole, even=True)),
            (sampled, wald_quadratic_loop(sampled_signs(q, 500, p), scores, sigma_inv)),
        ):
            got = kernels.group_wald_quadratic(group.sweep(scores), sigma_inv, q)
            assert np.array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_kernel_matches_row_loop(self, p, mode):
        # the kernel reads (p, m) means; the earlier loop read them as (m, p).
        # A general sigma_inv pins the index order, and the sampled group
        # spans two 2^14-row chunks.
        q = 11
        rng = np.random.default_rng(p)
        scores = rng.standard_normal((q, p))
        sigma_inv = rng.standard_normal((p, p))
        if mode == "exhaustive":
            group = SignGroup(q, "exhaustive")
        else:
            group = SignGroup(q, "sampled", seed=p, draws=2**14 + 300)
        means = group.sweep(scores)
        got = kernels.group_wald_quadratic(means, sigma_inv, q)
        assert np.array_equal(bits(got), bits(wald_quadratic_rows(means.T, sigma_inv, q)))

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_run_wald_test_matches_loop(self, rng, mode):
        data = random_dataset(rng, q=9, d=3)
        mh = MultiHypothesis(restriction=rng.standard_normal((2, 3)), values=rng.standard_normal(2))
        if mode == "exhaustive":
            group, signs = SignGroup(9, "exhaustive"), oracle_signs(9)
        else:
            group, signs = SignGroup(9, "sampled", seed=4, draws=700), sampled_signs(9, 700, 4)
        result = run_wald_test(data, mh, 0.1, group)
        scores, sigma_inv, e = _wald_ingredients(fit_per_cluster(data), mh)
        stats = wald_quadratic_loop(signs, np.ldexp(scores, e), sigma_inv)
        assert bits(result.statistic) == bits(stats[0])
        assert bits(result.critical_value) == bits(sort_critical_value(stats, 0.9))
        thresh = stats[0] - 1e-12 * max(1.0, stats[0])
        assert result.p_value == np.count_nonzero(stats >= thresh) / stats.size


# the sampled group spans two 2^14-row chunks
SWEEP_GROUPS = [SignGroup(6, "exhaustive"), SignGroup(6, "sampled", seed=5, draws=2**14 + 7)]
FLOAT_MAX = np.finfo(np.float64).max


class TestSweepLayout:
    """The group axis is last: (q,) values sweep to (m,), (q, p) values to (p, m)."""

    @pytest.mark.parametrize("p", [None, 1, 3])
    @pytest.mark.parametrize("group", SWEEP_GROUPS, ids=["exhaustive", "sampled"])
    def test_shape_and_identity_row(self, group, p):
        rng = np.random.default_rng(6)
        values = rng.standard_normal(6 if p is None else (6, p))
        got = group.sweep(values)
        assert got.shape == ((group.rows,) if p is None else (p, group.rows))
        assert got.flags.c_contiguous
        identity = column_loop_means(np.ones((1, 6), dtype=np.int8), values)[0]
        assert np.array_equal(bits(got[..., 0]), bits(identity))
        # each value column sweeps to the row that sweeping it alone gives
        for c in range(p or 0):
            assert np.array_equal(bits(got[c]), bits(group.sweep(values[:, c])))


def edge_values(p, third: float) -> np.ndarray:
    """Ones, with the last column led by +-max/2 (|sum| = max exactly) and ``third``."""
    values = np.ones(6 if p is None else (6, p))
    column = values if p is None else values[:, -1]
    column[:3] = FLOAT_MAX / 2, -FLOAT_MAX / 2, third
    return values


class TestGuardedSweep:
    """Every sweep refuses values whose signed means could overflow, and no other."""

    @pytest.mark.parametrize(
        "third", [np.nan, np.inf, -np.inf, FLOAT_MAX / 4], ids=["nan", "inf", "-inf", "overflow"]
    )
    @pytest.mark.parametrize("p", [None, 1, 3])
    @pytest.mark.parametrize("group", SWEEP_GROUPS, ids=["exhaustive", "sampled"])
    def test_refuses_non_finite_or_overflowing_values(self, group, p, third):
        with pytest.raises(ValueError) as refused:
            group.sweep(edge_values(p, third))
        assert str(refused.value) == (
            "scores are not finite, or their absolute sum over the clusters "
            "overflows float64; rescale the outcome or the contrast"
        )

    @pytest.mark.parametrize("p", [None, 1, 3])
    @pytest.mark.parametrize("group", SWEEP_GROUPS, ids=["exhaustive", "sampled"])
    def test_sums_up_to_the_float64_maximum_sweep(self, group, p):
        values = edge_values(p, 0.0)
        got = group.sweep(values)
        assert np.isfinite(got).all()
        assert np.array_equal(bits(got), bits(oracle_means(group, values)))


class TestLazySigns:
    """A group holds its parameters alone; its rows exist only inside the sweep."""

    @pytest.mark.parametrize("q", range(2, 17))
    def test_matches_bit_expansion(self, q):
        group = SignGroup(q, "exhaustive")
        # sweeping the unit vectors gives row i scaled by 1/q: the signs of
        # row i, for the first half of the group, whose g_0 = +1
        rows = np.sign(group.sweep(np.eye(q)).T).astype(np.int8)
        assert np.array_equal(rows, exhaustive_half(oracle_signs(q)))
        assert rows.shape == (group.rows, q) and np.all(rows[:, 0] == 1)

    def test_engine_never_builds_exhaustive_matrix(self, rng):
        data = random_dataset(rng, q=8, d=2)
        c = random_contrast(rng, 2)
        group = SignGroup(8, "exhaustive")
        run_test(data, LinearHypothesis(contrast=c, value=0.0), 0.1, group)
        run_test(data, LinearHypothesis(contrast=c, value=0.0), 0.1, group, "studentized")
        mh = MultiHypothesis(restriction=rng.standard_normal((2, 2)), values=np.zeros(2))
        run_wald_test(data, mh, 0.1, group)
        inputs = interval_inputs(fit_per_cluster(data), c, group)
        ci = interval(inputs, 0.1)
        pvalue_profile(inputs, ci.lower)
        assert [f.name for f in dataclasses.fields(SignGroup)] == ["q", "mode", "seed", "draws"]
        assert vars(group) == {"q": 8, "mode": "exhaustive", "seed": None, "draws": None}


def log_uniform_inputs(group, seed, sweep=None):
    """IntervalInputs over sizes from 1 to 1e12, both extremes always present.

    ``sweep`` replaces ``group.sweep``, for the whole-group oracle.
    """
    rng = np.random.default_rng(seed)
    sizes = np.rint(10.0 ** rng.uniform(0.0, 12.0, group.q))
    sizes[rng.permutation(group.q)[:2]] = (1.0, 1e12)
    w = np.sqrt(sizes)
    sweep = sweep or group.sweep
    return IntervalInputs(a=sweep(w), b=sweep(w * rng.standard_normal(group.q)))


class TestPmIdentity:
    """The +-identity rows read off a(g) are the rows with all signs equal."""

    @pytest.mark.parametrize("q", range(2, 13))
    def test_exhaustive_matches_mask(self, q):
        # the half holds the identity alone; the whole group adds its negation
        group = SignGroup(q, "exhaustive")
        inputs = log_uniform_inputs(group, seed=q)
        assert np.array_equal(inputs.pm_identity, pm_iota_mask(exhaustive_half(oracle_signs(q))))
        assert np.count_nonzero(inputs.pm_identity) * (group.size // group.rows) == 2
        whole = log_uniform_inputs(group, seed=q, sweep=exhaustive_sweep)
        assert np.array_equal(whole.pm_identity, pm_iota_mask(oracle_signs(q)))


    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(2, 6), draws=st.integers(2, 200), seed=st.integers(0, 2**31))
    def test_sampled_matches_mask(self, q, draws, seed):
        inputs = log_uniform_inputs(SignGroup(q, "sampled", seed=seed, draws=draws), seed)
        assert np.array_equal(inputs.pm_identity, pm_iota_mask(sampled_signs(q, draws, seed)))

    def test_exact_where_a_tolerance_would_misfire(self):
        # no int64 sizes put a row this close, but weights 1e13 apart leave
        # row (+1, -1) only 2e-13 below a(identity): inside a 1e-12 relative
        # tolerance, yet far above the rounding of a two-term sum
        group, w = SignGroup(2, "exhaustive"), np.array([1e13, 1.0])
        inputs = IntervalInputs(a=group.sweep(w), b=group.sweep(w))
        assert np.array_equal(inputs.pm_identity, pm_iota_mask(exhaustive_half(oracle_signs(2))))
        whole = IntervalInputs(a=exhaustive_sweep(w), b=exhaustive_sweep(w))
        assert np.array_equal(whole.pm_identity, pm_iota_mask(oracle_signs(2)))


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
        group = SignGroup(q, "sampled", seed=seed, draws=draws)
        signs = sampled_signs(q, draws, seed)
        rng = np.random.default_rng(values_seed)
        for values in (rng.standard_normal(q), rng.standard_normal((q, 2))):
            expected = group_last(column_loop_means(signs, values))
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
            labels=tuple(range(q)),
        )
        inputs = interval_inputs(est, [1.0], SignGroup(q, "exhaustive"))
        lo_all, hi_all = kernels.interval_bounds(inputs.a, inputs.b, inputs.pm_identity)
        lower, upper = sort_interval_endpoints(lo_all, hi_all, alpha)
        ci = interval(inputs, alpha)
        assert_same_selection(ci.lower, lower, np.concatenate([lo_all, hi_all]))
        assert_same_selection(ci.upper, upper, np.concatenate([lo_all, hi_all]))

    def test_interval_q20_matches_sort(self, rng):
        data = random_dataset(rng, q=20, d=2, size_hi=12)
        c = random_contrast(rng, 2)
        inputs = interval_inputs(fit_per_cluster(data), c, SignGroup(20, "exhaustive"))
        lo_all, hi_all = kernels.interval_bounds(inputs.a, inputs.b, inputs.pm_identity)
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
        signs = exhaustive_half(oracle_signs(q))
        group = SignGroup(q, "exhaustive")
    else:
        draws, seed = draw(st.integers(2, 300)), draw(st.integers(0, 2**31))
        signs = sampled_signs(q, draws, seed)
        group = SignGroup(q, "sampled", seed=seed, draws=draws)
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
        if group.mode == "exhaustive":
            # the whole group's bounds are the half's, each twice
            w = np.sqrt(estimates.sizes.astype(np.float64))
            a_all, b_all = exhaustive_sweep(np.stack([w, w * cbeta], axis=1))
            pm = pm_iota_mask(oracle_signs(group.q))
            bounds = interval_bounds_branches(a_all, b_all, a_all[0], b_all[0], pm)
            whole = sort_interval_endpoints(*bounds, alpha)
            for got, want in zip(expected, whole):
                assert_same_selection(got, want, np.concatenate(bounds))
        if np.any(cbeta != cbeta[0]):
            assert bits([ci.lower, ci.upper]).tolist() == bits(expected).tolist()
        else:
            # a point interval: rows whose crossings tie may round either
            # way, so both pairs need only contain lambda0 up to rounding
            lam0, tol = inputs.lambda0, _rounding_tol(inputs.lambda0)
            for lower, upper in ((ci.lower, ci.upper), expected):
                assert lower <= lam0 + tol and upper >= lam0 - tol


LEVELS = st.one_of(
    st.sampled_from([0.01, 0.05, 0.1, 0.32, 0.5, 0.9, 0.95, 0.99, 1.0 / 3.0]),
    st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
)


@st.composite
def dyadic_levels(draw, q):
    """k / 2^q, where m * level lands on an integer, or one ulp either side of it."""
    level = draw(st.integers(1, (1 << q) - 1)) / (1 << q)
    return draw(st.sampled_from([level, np.nextafter(level, 0.0), np.nextafter(level, 1.0)]))


class TestHalfGroup:
    """An exhaustive sweep's g_0 = +1 half decides as the whole group does.

    Each half statistic and bound stands for itself and its negated row,
    so the whole group's multiset is the half's, each value twice: its
    k-th smallest is the half's ceil(k / 2)-th, and a tie count c over
    2^(q-1) rows is 2c over 2^q.
    """

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), q=st.integers(2, 20))
    def test_half_order_statistic_is_the_doubled_one(self, data, q):
        level = data.draw(st.one_of(LEVELS, dyadic_levels(q)))
        m = 1 << q
        k = order_statistic_index(m, level)
        assert order_statistic_index(m // 2, level) == math.ceil(k / 2)

    @settings(max_examples=80, deadline=None)
    @given(
        values=matrices(2, 12),
        alpha=st.one_of(st.sampled_from([0.05, 0.1, 0.32]), st.floats(1e-3, 0.5)),
        variant=st.sampled_from(["unstudentized", "studentized"]),
    )
    @example(values=np.array([[0.0], [1.4e-299]]), alpha=0.05, variant="studentized")
    def test_engine_matches_whole_group(self, values, alpha, variant):
        if variant == "studentized":
            # an all-equal column has zero spread at the identity
            flat = np.all(values == values[:1], axis=0)
            values[0, flat] += 1.0
        signs, group = oracle_signs(values.shape[0]), SignGroup(values.shape[0], "exhaustive")
        expected = decision_loop(signs, values, alpha)
        if variant == "studentized":
            try:
                expected[:2] = decision_loop(signs, values, alpha, variant)[:2]
            except DegenerateVariance:  # a spread that cancels to zero
                with pytest.raises(DegenerateVariance):
                    run_test_columns(values, alpha, group, variant)
                return
        got = run_test_columns(values, alpha, group, variant)
        assert np.array_equal(bits(got), bits(expected))

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(3, 10),
        p=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.one_of(st.sampled_from([0.05, 0.1, 0.32]), st.floats(1e-3, 0.5)),
    )
    def test_wald_matches_whole_group(self, q, p, seed, alpha):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, q=q, d=3)
        restriction, values = rng.standard_normal((p, 3)), rng.standard_normal(p)
        mh = MultiHypothesis(restriction=restriction, values=values)
        result = run_wald_test(data, mh, alpha, SignGroup(q, "exhaustive"))
        scores, sigma_inv, e = _wald_ingredients(fit_per_cluster(data), mh)
        signs = oracle_signs(q)
        stats = wald_quadratic_loop(signs, np.ldexp(scores, e), sigma_inv)
        # a one-row test counts its ties on the |mean| scale
        t = np.abs(column_loop_means(signs, scores)[:, 0]) if p == 1 else stats
        thresh = t[0] - 1e-12 * max(1.0, t[0])
        assert bits(result.statistic) == bits(stats[0])
        assert bits(result.critical_value) == bits(sort_critical_value(stats, 1.0 - alpha))
        assert result.p_value == np.count_nonzero(t >= thresh) / t.size

    @settings(max_examples=200, deadline=None)
    @given(
        instance=branch_instances(),
        alpha=LEVELS.filter(lambda a: a <= 0.5),
    )
    def test_interval_on_whole_group_inputs(self, instance, alpha):
        estimates, group, _, _ = instance
        if group.mode != "exhaustive":
            group = SignGroup(group.q, "exhaustive")
        w = np.sqrt(estimates.sizes.astype(np.float64))
        values = np.stack([w, w * estimates.betas[:, 0]], axis=1)
        half = IntervalInputs(*group.sweep(values))
        whole = IntervalInputs(*exhaustive_sweep(values))
        assert np.array_equal(bits(half.a), bits(exhaustive_half(whole.a)))
        assert np.array_equal(bits(half.b), bits(exhaustive_half(whole.b)))
        got = interval(half, alpha)
        expected = interval(whole, alpha)
        pool = np.concatenate(kernels.interval_bounds(half.a, half.b, half.pm_identity))
        assert_same_selection(got.lower, expected.lower, pool)
        assert_same_selection(got.upper, expected.upper, pool)
        assert bits(got.lambda0) == bits(expected.lambda0)
