"""Pseudo-cluster blocks and cluster merging."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artcluster import (
    DegenerateGrouping,
    IdentificationFailure,
    NonFiniteValue,
    TooFewObservations,
    WidthMismatch,
    blockify,
    canonicalize,
    fit_per_cluster,
    merge_clusters,
    plan_blocks,
)
from artcluster.blocks import BlockPlan
from artcluster.errors import DuplicateTimeKeyWarning
from tests.oracles import bits, blockify_via_canonicalize


class TestPlanBlocks:
    @pytest.mark.parametrize(
        "q, base", [(8, 328), (10, 263), (16, 164)]
    )
    def test_reference_sizes(self, q, base):
        plan = plan_blocks(2631, q)
        assert plan.base_size == base
        assert plan.last_size == 2631 - base * (q - 1)

    def test_remainder_goes_last(self):
        plan = plan_blocks(2631, 10)
        assert plan.last_size == 264
        sizes = [stop - start for start, stop in plan.boundaries]
        assert sizes == [263] * 9 + [264]

    def test_partition(self):
        for n, q in [(17, 3), (100, 7), (2631, 16)]:
            plan = plan_blocks(n, q)
            starts = [start for start, _ in plan.boundaries]
            stops = [stop for _, stop in plan.boundaries]
            assert starts == [0] + stops[:-1]
            assert plan.n == stops[-1] == n
            sizes = [stop - start for start, stop in plan.boundaries]
            assert sizes == [plan.base_size] * (q - 1) + [plan.last_size]

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            plan_blocks(10, 11)

    def test_sizes_read_off_boundaries(self):
        plan = BlockPlan(((0, 3), (3, 6), (6, 10)))
        assert (plan.q, plan.base_size, plan.last_size, plan.n) == (3, 3, 4, 10)
        assert plan == plan_blocks(10, 3)

    @pytest.mark.parametrize(
        "boundaries",
        [(), ((0, 5),), ((0, 3), (3, 7), (7, 10)), ((0, 4), (4, 7))],
        ids=["empty", "one-block", "unequal-leading", "short-last"],
    )
    def test_inconsistent_boundaries(self, boundaries):
        with pytest.raises(ValueError, match="need 2 or more blocks"):
            BlockPlan(boundaries)

    def test_q_lower_bound(self):
        with pytest.raises(ValueError):
            plan_blocks(10, 1)


class TestBlockify:
    def test_even_split(self, rng):
        data = blockify(np.arange(10), rng.standard_normal(10), rng.standard_normal((10, 1)), 2)
        assert data.sizes.tolist() == [5, 5]

    def test_remainder_to_last_block(self, rng):
        data = blockify(np.arange(11), rng.standard_normal(11), rng.standard_normal((11, 1)), 2)
        assert data.sizes.tolist() == [5, 6]

    def test_large_series_matches_plan(self, rng):
        n = 2631
        data = blockify(np.arange(n), rng.standard_normal(n), rng.standard_normal((n, 2)), 10)
        assert data.sizes.tolist() == [263] * 9 + [264]

    def test_sorts_by_time_key(self, rng):
        keys = np.array([3.0, 1.0, 2.0, 0.0])
        y = np.array([30.0, 10.0, 20.0, 0.0])
        data = blockify(keys, y, np.ones((4, 1)), 2)
        assert data.outcomes.tolist() == [0.0, 10.0, 20.0, 30.0]

    def test_duplicate_keys_warn_and_keep_order(self, rng):
        keys = np.array([1.0, 1.0, 0.0, 2.0])
        y = np.array([10.0, 11.0, 0.0, 20.0])
        with pytest.warns(DuplicateTimeKeyWarning):
            data = blockify(keys, y, np.ones((4, 1)), 2)
        assert data.outcomes.tolist() == [0.0, 10.0, 11.0, 20.0]

    def test_deterministic(self, rng):
        keys = rng.standard_normal(50)
        y = rng.standard_normal(50)
        Z = rng.standard_normal((50, 2))
        a = blockify(keys, y, Z, 5)
        b = blockify(keys, y, Z, 5)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert a.labels == b.labels

    @pytest.mark.parametrize("n_y, n_z", [(6, 6), (4, 6), (6, 4), (5, 5)])
    def test_misaligned_lengths_rejected(self, n_y, n_z):
        with pytest.raises(WidthMismatch):
            blockify(np.arange(4.0), np.arange(float(n_y)), np.ones((n_z, 1)), 2)

    def test_two_dimensional_keys_rejected(self):
        with pytest.raises(ValueError, match="^time keys must be 1-D$"):
            blockify(np.arange(20.0).reshape(10, 2), np.zeros(10), np.ones((10, 1)), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_keys_rejected(self, bad):
        keys = np.arange(40.0)
        keys[3] = bad
        with pytest.raises(NonFiniteValue, match="time keys"):
            blockify(keys, np.zeros(40), np.ones((40, 1)), 4)

    @given(
        keys=st.one_of(
            st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300]), min_size=2,
                     max_size=30).map(np.array),
            st.lists(st.integers(-5, 5), min_size=2, max_size=30).map(np.array),
            st.lists(st.text("ab", max_size=2), min_size=2, max_size=30).map(np.array),
            st.lists(st.text("ab", max_size=2), min_size=2, max_size=30).map(
                lambda ks: np.array(ks, dtype=object)),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_duplicate_warning_follows_the_unique_rule(self, keys):
        n = keys.shape[0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            blockify(keys, np.zeros(n), np.ones((n, 1)), 2)
        assert [w.category for w in caught] == (
            [DuplicateTimeKeyWarning] if np.unique(keys).shape[0] != n else []
        )
        assert all(w.filename == __file__ for w in caught)  # stacklevel=2: the caller's line

    @given(
        keys=st.lists(st.integers(-3, 3).map(float), min_size=2, max_size=40),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_canonicalized_block_labels(self, keys, data):
        n = len(keys)
        q = data.draw(st.integers(2, n), label="q")
        d = data.draw(st.integers(0, 3), label="d_z (0: a 1-D covariate)")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        y = rng.standard_normal(n)
        Z = rng.standard_normal(n) if d == 0 else rng.standard_normal((n, d))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateTimeKeyWarning)
            got = blockify(keys, y, Z, q)
        ref = blockify_via_canonicalize(keys, y, Z, q)
        assert np.array_equal(bits(got.outcomes), bits(ref.outcomes))
        assert np.array_equal(bits(got.covariates), bits(ref.covariates))
        assert np.array_equal(got.sizes, ref.sizes)
        assert got.labels == ref.labels == tuple(range(1, q + 1))
        assert all(type(lab) is int for lab in got.labels)


class TestMergeClusters:
    def test_paired_sizes_add(self, rng):
        sizes = [3, 4, 5, 6]
        labels = np.repeat(["a", "b", "c", "d"], sizes)
        data = canonicalize(labels, rng.standard_normal(18), rng.standard_normal((18, 1)))
        merged = merge_clusters(data, {"a": "ab", "b": "ab", "c": "cd", "d": "cd"})
        assert merged.labels == ("ab", "cd")
        assert merged.sizes.tolist() == [7, 11]

    def test_identity_grouping_is_noop(self, rng):
        labels = np.repeat(["a", "b", "c"], 4)
        data = canonicalize(labels, rng.standard_normal(12), rng.standard_normal((12, 2)))
        same = merge_clusters(data, {"a": "a", "b": "b", "c": "c"})
        assert same.labels == data.labels
        assert np.array_equal(same.outcomes, data.outcomes)
        assert np.array_equal(same.covariates, data.covariates)

    def test_rows_preserved(self, rng):
        labels = np.repeat(["a", "b", "c", "d"], 5)
        y = rng.standard_normal(20)
        Z = rng.standard_normal((20, 2))
        data = canonicalize(labels, y, Z)
        merged = merge_clusters(data, {"a": 1, "b": 2, "c": 1, "d": 2})
        assert merged.n == data.n
        assert sorted(merged.outcomes.tolist()) == sorted(data.outcomes.tolist())
        # within-group input order preserved: group 1 is a-rows then c-rows
        a_rows = data.outcomes[data.cluster_slice(0)]
        c_rows = data.outcomes[data.cluster_slice(2)]
        assert merged.outcomes[merged.cluster_slice(0)].tolist() == (
            a_rows.tolist() + c_rows.tolist()
        )

    def test_merge_restores_identification(self, rng):
        # treatment constant within original clusters, varying once merged
        n_j = 12
        treatment = np.repeat([1.0, 0.0, 1.0, 0.0], n_j)
        Z = np.column_stack([np.ones(4 * n_j), treatment, rng.standard_normal(4 * n_j)])
        y = rng.standard_normal(4 * n_j)
        data = canonicalize(np.repeat(["t1", "c1", "t2", "c2"], n_j), y, Z)
        with pytest.raises(IdentificationFailure):
            fit_per_cluster(data)
        merged = merge_clusters(data, {"t1": "p1", "c1": "p1", "t2": "p2", "c2": "p2"})
        est = fit_per_cluster(merged)
        assert est.q == 2

    def test_grouping_must_be_total(self, rng):
        labels = np.repeat(["a", "b", "c"], 4)
        data = canonicalize(labels, rng.standard_normal(12), rng.standard_normal((12, 1)))
        with pytest.raises(KeyError):
            merge_clusters(data, {"a": 1, "b": 2})

    def test_degenerate_grouping(self, rng):
        labels = np.repeat(["a", "b"], 4)
        data = canonicalize(labels, rng.standard_normal(8), rng.standard_normal((8, 1)))
        with pytest.raises(DegenerateGrouping):
            merge_clusters(data, {"a": "all", "b": "all"})
