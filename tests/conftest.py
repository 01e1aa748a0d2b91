"""Shared instance builders for the test suite."""

import numpy as np
import pytest

from artcluster import canonicalize, fit_per_cluster
from artcluster.groups import SignGroup


def random_dataset(rng, q, d, size_lo=None, size_hi=60, sigma_spread=1.0):
    """A well-conditioned clustered regression instance.

    Continuous covariates keep every within-cluster Gram matrix full
    rank with probability one, so per-cluster fits never fail.
    """
    if size_lo is None:
        size_lo = d + 1
    sizes = rng.integers(size_lo, size_hi + 1, size=q)
    n = int(sizes.sum())
    Z = rng.standard_normal((n, d))
    beta = rng.standard_normal(d)
    scales = np.repeat(1.0 + sigma_spread * rng.random(q), sizes)
    y = Z @ beta + scales * rng.standard_normal(n)
    labels = np.repeat(np.arange(1, q + 1), sizes)
    return canonicalize(labels, y, Z)


def random_contrast(rng, d):
    c = rng.standard_normal(d)
    while not np.any(c != 0.0):
        c = rng.standard_normal(d)
    return c


@pytest.fixture(scope="session")
def group_cache():
    """Exhaustive sign groups by q; a group is its parameters, so none is kept."""
    return lambda q: SignGroup(q, "exhaustive")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def micro_estimates():
    """The two-cluster hand instance: n_j = 4, c'beta_j = (1, 3)."""
    labels = ["a"] * 4 + ["b"] * 4
    y = np.array([1.0] * 4 + [3.0] * 4)
    Z = np.ones((8, 1))
    data = canonicalize(labels, y, Z)
    return fit_per_cluster(data)
