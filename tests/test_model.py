"""Core type behavior: canonicalization, hypotheses, public names."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artcluster
from artcluster import (
    LinearHypothesis,
    MultiHypothesis,
    NonFiniteValue,
    TooFewClusters,
    WidthMismatch,
    canonicalize,
)


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

    def test_arrays_are_read_only(self):
        data = canonicalize(["a", "b"], [1.0, 2.0], np.ones((2, 1)))
        with pytest.raises(ValueError):
            data.outcomes[0] = 5.0

    def test_cluster_rows_partition(self, rng):
        labels = rng.integers(0, 5, size=30)
        labels[:5] = np.arange(5)  # ensure 5 distinct
        data = canonicalize(labels, rng.standard_normal(30), rng.standard_normal((30, 2)))
        total = sum(data.cluster_rows(j)[0].shape[0] for j in range(data.q))
        assert total == data.n


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

    def test_wide_restriction_rejected(self):
        with pytest.raises(ValueError):
            MultiHypothesis(restriction=np.vstack([np.eye(3), [1.0, 1.0, 1.0]]), values=np.zeros(4))
        # p = d_z is fine
        MultiHypothesis(restriction=np.eye(3), values=np.zeros(3))


def test_public_names_resolve():
    # a deletion that leaves its export behind fails here, not at import time
    missing = [name for name in artcluster.__all__ if not hasattr(artcluster, name)]
    assert missing == []
