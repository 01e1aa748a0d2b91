"""Core type behavior: canonicalization and hypotheses."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artcluster import (
    ClusteredDataset,
    EmptyCluster,
    LinearHypothesis,
    MultiHypothesis,
    NonFiniteValue,
    TooFewClusters,
    WidthMismatch,
    canonicalize,
)
from tests.oracles import bits, canonicalize_loop


class TestCanonicalize:
    def test_order_of_first_appearance(self):
        data = canonicalize(
            ["b", "a", "b", "a"],
            [1.0, 2.0, 3.0, 4.0],
            [[1.0], [2.0], [3.0], [4.0]],
        )
        assert data.labels == ("b", "a")
        assert data.sizes.tolist() == [2, 2]
        # rows of each cluster keep their input order
        assert data.outcomes.tolist() == [1.0, 3.0, 2.0, 4.0]

    @pytest.mark.parametrize(
        "labels, expected",
        [
            (np.array([3, 1, 3, 2]), (3, 1, 2)),
            (np.array(["b", "a", "b", "c"]), ("b", "a", "c")),
            (np.array(["b", 1, "b", 2.5], dtype=object), ("b", 1, 2.5)),
        ],
        ids=["int", "str", "object"],
    )
    def test_array_labels_become_python_values(self, labels, expected):
        data = canonicalize(labels, [1.0, 2.0, 3.0, 4.0], np.ones((4, 1)))
        assert data.labels == expected
        assert [type(lab) for lab in data.labels] == [type(lab) for lab in expected]
        assert data.outcomes.tolist() == [1.0, 3.0, 2.0, 4.0]

    def test_single_label_rejected(self):
        with pytest.raises(TooFewClusters):
            canonicalize(["a", "a", "a"], [1.0, 2.0, 3.0], np.ones((3, 1)))

    def test_nan_outcome_rejected(self):
        with pytest.raises(NonFiniteValue):
            canonicalize(
                ["a", "a", "b", "c"],
                [1.0, np.nan, 2.0, 3.0],
                np.ones((4, 1)),
            )

    def test_inf_covariate_rejected(self):
        Z = np.ones((4, 2))
        Z[2, 1] = np.inf
        with pytest.raises(NonFiniteValue):
            canonicalize(["a", "a", "b", "b"], [1.0, 2.0, 3.0, 4.0], Z)

    def test_ragged_rows_rejected(self):
        with pytest.raises(WidthMismatch):
            canonicalize(["a", "b"], [1.0, 2.0], [[1.0, 2.0], [1.0]])
        with pytest.raises(WidthMismatch, match="^covariates must be rows of equal width$"):
            canonicalize(["a", "b"], [1.0, 2.0], np.ones((2, 1, 1)))

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(WidthMismatch):
            canonicalize(["a", "b", "a"], [1.0, 2.0], np.ones((3, 1)))

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, label_ids):
        if len(set(label_ids)) < 2:
            label_ids = label_ids + [0, 1]
        n = len(label_ids)
        rng = np.random.default_rng(7)
        y = rng.standard_normal(n)
        Z = rng.standard_normal((n, 2))
        once = canonicalize(label_ids, y, Z)
        twice = canonicalize(once.row_labels(), once.outcomes, once.covariates)
        assert once.labels == twice.labels
        assert np.array_equal(once.sizes, twice.sizes)
        assert np.array_equal(once.outcomes, twice.outcomes)
        assert np.array_equal(once.covariates, twice.covariates)

    @given(q=st.integers(2, 300), extra=st.integers(0, 200), seed=st.integers(0, 2**32 - 1),
           spell=st.booleans())
    @example(q=256, extra=40, seed=1, spell=False)
    @example(q=257, extra=40, seed=2, spell=True)
    @example(q=300, extra=0, seed=3, spell=True)
    @settings(max_examples=60, deadline=None)
    def test_equals_setdefault_loop(self, q, extra, seed, spell):
        rng = np.random.default_rng(seed)
        codes = rng.permutation(np.concatenate([np.arange(q), rng.integers(0, q, extra)]))
        labels = codes.tolist()
        if spell:  # 1, 1.0 and True are one dict key; the first spelling names the cluster
            labels = [[1, 1.0, True][k] if lab == 1 else f"c{lab}"
                      for lab, k in zip(labels, rng.integers(0, 3, len(labels)).tolist())]
        y, Z = rng.standard_normal(len(labels)), rng.standard_normal((len(labels), 2))
        got, ref = canonicalize(labels, y, Z), canonicalize_loop(labels, y, Z)
        assert got.labels == ref.labels
        assert [type(lab) for lab in got.labels] == [type(lab) for lab in ref.labels]
        assert np.array_equal(got.sizes, ref.sizes)
        assert np.array_equal(bits(got.outcomes), bits(ref.outcomes))
        assert np.array_equal(bits(got.covariates), bits(ref.covariates))

    def test_arrays_are_read_only(self):
        data = canonicalize(["a", "b"], [1.0, 2.0], np.ones((2, 1)))
        with pytest.raises(ValueError):
            data.outcomes[0] = 5.0

    def test_cluster_slices_partition(self, rng):
        labels = rng.integers(0, 5, size=30)
        labels[:5] = np.arange(5)  # ensure 5 distinct
        data = canonicalize(labels, rng.standard_normal(30), rng.standard_normal((30, 2)))
        slices = [data.cluster_slice(j) for j in range(data.q)]
        assert [s.start for s in slices[1:]] == [s.stop for s in slices[:-1]]
        assert (slices[0].start, slices[-1].stop) == (0, data.n)


class TestClusteredDataset:
    ROWS = {"outcomes": [1.0, 2.0, 3.0], "covariates": np.ones((3, 1)), "sizes": [2, 1],
            "labels": ("a", "b")}

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            ({"covariates": np.ones(3)}, WidthMismatch,
             "covariates must be a 2-D array with at least one column"),
            ({"outcomes": [1.0, 2.0]}, WidthMismatch, "outcomes and covariate rows must align"),
            ({"labels": ("a", "b", "c")}, ValueError,
             "labels and sizes must have one entry per cluster"),
            ({"sizes": [3], "labels": ("a",)}, TooFewClusters, "need at least 2 clusters"),
            ({"sizes": [3, 0]}, EmptyCluster, "every cluster needs at least one observation"),
            ({"sizes": [1, 1]}, ValueError, "cluster sizes must sum to the number of rows"),
        ],
        ids=["1-d-covariates", "misaligned", "labels", "one-cluster", "empty-cluster", "sizes"],
    )
    def test_construction_refused(self, edit, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            ClusteredDataset(**{**self.ROWS, **edit})


class TestHypotheses:
    def test_zero_contrast_rejected(self):
        with pytest.raises(ValueError):
            LinearHypothesis(contrast=[0.0, 0.0], value=1.0)

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ValueError):
            LinearHypothesis(contrast=[1.0], value=np.inf)

    def test_rank_deficient_restriction_rejected(self):
        with pytest.raises(ValueError):
            MultiHypothesis(restriction=[[1.0, 0.0], [2.0, 0.0]], values=[0.0, 0.0])

    # the rank is read off each row scaled by its own power of two, so a row in
    # other units keeps the decision; unscaled, 2^200 and 2^-200 read as rank 1
    @pytest.mark.parametrize("k", [-1000, -200, 200, 1000])
    def test_row_units_keep_the_rank_check(self, k):
        rows = np.eye(3)[1:]
        rows[0] = np.ldexp(rows[0], k)
        MultiHypothesis(restriction=rows, values=np.zeros(2))
        with pytest.raises(ValueError, match="full row rank"):
            MultiHypothesis(restriction=[[1.0, 0.0], [np.ldexp(2.0, k), 0.0]], values=[0.0, 0.0])

    def test_wide_restriction_rejected(self):
        with pytest.raises(ValueError):
            MultiHypothesis(restriction=np.vstack([np.eye(3), [1.0, 1.0, 1.0]]), values=np.zeros(4))
        # p = d_z is fine
        MultiHypothesis(restriction=np.eye(3), values=np.zeros(3))

    @pytest.mark.parametrize(
        "restriction, values, message",
        [
            ([[1.0, 0.0]], [0.0, 1.0], "restriction rows must match the number of values"),
            ([1.0, 0.0], [0.0], "restriction rows must match the number of values"),
            ([[1.0, np.nan]], [0.0], "restriction and values must be finite"),
            ([[1.0, 0.0]], [np.inf], "restriction and values must be finite"),
        ],
        ids=["values", "1-d", "nan-restriction", "inf-value"],
    )
    def test_malformed_restriction_rejected(self, restriction, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MultiHypothesis(restriction=restriction, values=values)

