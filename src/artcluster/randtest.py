"""Randomization test engine: statistics, critical values, p-values.

The test statistic is the absolute mean of per-cluster scores; the
reference distribution comes from flipping the score signs with every
element of a :class:`~artcluster.groups.SignGroup` (whose row 0 is the
identity, so the observed statistic is always ``statistics[0]``).
One engine, :func:`run_test_columns`, tests a (q, k) block of score
vectors -- k null values or k replications -- in a single sweep.

Tie handling: indicator comparisons use exact ``>=`` on doubles after
snapping values within ``1e-12 * max(1, |T|)`` of the observed statistic
onto it.  The equivalence theorems behind the engine hold exactly in
real arithmetic; snapping keeps rounding noise from breaking them.

Both variants are decided on the one ``|mean|`` sweep, and ties are
snapped on that scale.  The studentized statistic is an increasing
function of ``|mean|`` under every sign change, so the engine maps only
the observed statistic and the critical value onto the studentized
scale; its p-value is the unstudentized one by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from artcluster import kernels
from artcluster.errors import DegenerateVariance, SingularSigma
from artcluster.estimation import (
    ClusterEstimates,
    cluster_scores,
    fit_per_cluster,
    fit_restricted,
    reciprocal_condition,
)
from artcluster.groups import SignGroup, enumerate_group
from artcluster.model import ClusteredDataset, LinearHypothesis, MultiHypothesis

__all__ = [
    "SNAP_RTOL",
    "TestResult",
    "critical_value",
    "pvalue_from_statistics",
    "run_test",
    "run_test_from_scores",
    "run_wald_test",
    "scores_from_estimates",
    "scores_via_restricted",
]

SNAP_RTOL = 1e-12


def snap_tolerance(reference):
    return SNAP_RTOL * np.maximum(1.0, np.abs(reference))


# ------------------------------------------------------------------ #
# Scores
# ------------------------------------------------------------------ #


def _scale_weights(sizes: np.ndarray, scaling: str) -> np.ndarray:
    if scaling == "root_nj":
        return np.sqrt(sizes.astype(np.float64))
    if scaling == "root_n":
        return np.full(sizes.shape[0], math.sqrt(float(sizes.sum())))
    raise ValueError(f"unknown scaling {scaling!r} (use 'root_nj' or 'root_n')")


def scores_from_estimates(
    estimates: ClusterEstimates,
    hypothesis: LinearHypothesis,
    scaling: str = "root_nj",
) -> np.ndarray:
    """Centered per-cluster estimates, (q,): sqrt(n_j) * (c'beta_j - value).

    ``scaling="root_n"`` replaces sqrt(n_j) with the uniform sqrt(n)
    factor used by the multi-row statistic.
    """
    c = hypothesis.contrast
    if c.shape[0] != estimates.d_z:
        raise ValueError("contrast length must equal the covariate count")
    w = _scale_weights(estimates.sizes, scaling)
    return w * (estimates.betas @ c - hypothesis.value)


def scores_via_restricted(
    data: ClusteredDataset, hypothesis: LinearHypothesis
) -> np.ndarray:
    """Scores, (q,), from the restricted-residual route (single full-sample fit).

    Numerically equivalent to :func:`scores_from_estimates` on the
    per-cluster fits; exposed separately so the two routes can be
    cross-checked.
    """
    fit = fit_restricted(data, hypothesis)
    estimates = fit_per_cluster(data)
    return cluster_scores(data, fit, estimates, hypothesis)


# ------------------------------------------------------------------ #
# Statistics
# ------------------------------------------------------------------ #


def _wald_ingredients(
    estimates: ClusterEstimates,
    hypothesis: MultiHypothesis,
    scaling: str,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-cluster multi-row scores and the inverse outer-product matrix.

    The outer-product matrix is built from unsigned scores (sign flips
    leave it unchanged).  Returns ``(scores, None)`` in the degenerate
    all-zero-score case, where the statistic is identically zero.
    """
    if hypothesis.restriction.shape[1] != estimates.d_z:
        raise ValueError("restriction width must equal the covariate count")
    w = _scale_weights(estimates.sizes, scaling)
    diffs = estimates.betas @ hypothesis.restriction.T - hypothesis.values
    scores = w[:, None] * diffs  # (q, p)
    if not scores.any():
        return scores, None
    sigma = scores.T @ scores / estimates.q
    rc = reciprocal_condition(sigma)
    if not np.isfinite(rc) or rc < 1e-12:
        raise SingularSigma(
            f"score outer-product matrix is numerically singular (rcond {rc:.3e})"
        )
    return scores, np.linalg.inv(sigma)


# ------------------------------------------------------------------ #
# Critical values and p-values, along axis 0
# ------------------------------------------------------------------ #

# Guard against float fuzz in m*level before taking the ceiling: when
# the product lands within 1e-9 (relative) of an integer, use it.
_CEIL_GUARD = 1e-9


def order_statistic_index(m: int, level: float) -> int:
    """1-based k with: k-th smallest of m values is the level-quantile."""
    t = m * level
    k = math.ceil(t - _CEIL_GUARD * max(1.0, abs(t)))
    return min(max(k, 1), m)


def critical_value(values, level: float):
    """The ``level``-quantile of a multiset of reals.

    inf{u : fraction of values <= u is >= level}; equals the
    ceil(m*level)-th smallest value.  (m,) values give a float; (m, k)
    values give the quantile of each column.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need a nonempty multiset")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    k = order_statistic_index(arr.shape[0], level)
    crit = np.partition(arr, k - 1, axis=0)[k - 1]
    return float(crit) if arr.ndim == 1 else crit


def pvalue_from_statistics(statistics: np.ndarray, observed):
    """Fraction of group statistics >= the observed one (tie-snapped).

    (m,) statistics and a float observed value give a float; (m, k)
    statistics and (k,) observed values give the p-value of each column.
    """
    thresh = observed - snap_tolerance(observed)
    p = np.count_nonzero(statistics >= thresh, axis=0) / statistics.shape[0]
    return float(p) if statistics.ndim == 1 else p


# ------------------------------------------------------------------ #
# Test runner
# ------------------------------------------------------------------ #

# The engine sweeps at most this many statistics at once, i.e. chunks
# of max(1, 2^14 // m) score columns, so that each of a chunk's
# temporaries stays near 128 kB whatever the group size.
_CHUNK_STATISTICS = 2**14


def _decide(stats: np.ndarray, alpha: float) -> tuple:
    """Observed statistic, critical value and p-value of swept statistics."""
    observed = stats[0]
    return observed, critical_value(stats, 1.0 - alpha), pvalue_from_statistics(stats, observed)


def _studentize(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sqrt(q) * t / sqrt(mean(v^2) - t^2) for |mean| values t of each column.

    ``t`` is (r, k) for the (q, k) score block; zero or negative spread
    maps to ``+inf``.  Every rounded step is monotone in t, so the map
    keeps the order of the |mean| statistics.
    """
    q = values.shape[0]
    acc = np.zeros(values.shape[1])
    for x in values:
        acc += x * x
    var = acc / q - t * t
    out = np.full(t.shape, np.inf)
    ok = var > 0.0
    out[ok] = math.sqrt(q) * t[ok] / np.sqrt(var[ok])
    return out


def run_test_columns(
    values: np.ndarray,
    alpha: float,
    group: SignGroup,
    variant: str = "unstudentized",
) -> np.ndarray:
    """The randomization test of each column of a (q, k) block of scores.

    Returns a (3, k) array: the observed statistics, the critical values
    and the tie-snapped p-values; a column is rejected where its
    statistic exceeds its critical value.  Each column gets the same
    arithmetic as a test of that column alone, so one null value or
    replication and many give the same bits.  The studentized variant
    maps the statistic and critical value of the |mean| sweep through
    :func:`_studentize` and keeps its p-value.
    """
    if variant not in ("unstudentized", "studentized"):
        raise ValueError(f"unknown variant {variant!r}")
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("scores must be finite")
    width = max(1, _CHUNK_STATISTICS // group.size)
    out = np.empty((3, values.shape[1]))
    for start in range(0, values.shape[1], width):
        stats = group.sweep(values[:, start : start + width])
        out[:, start : start + width] = _decide(np.abs(stats, out=stats), alpha)
    if variant == "studentized":
        out[:2] = _studentize(values, out[:2])
        if not np.all(np.isfinite(out[0])):
            raise DegenerateVariance("observed signed scores have zero spread")
    return out


@dataclass(frozen=True)
class TestResult:
    """Outcome of one randomization test, with group provenance."""

    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    alpha: float
    group_size: int
    group_mode: str
    group_seed: int | None = None
    group_draws: int | None = None
    variant: str = "unstudentized"
    scaling: str = "root_nj"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.reject != (self.statistic > self.critical_value):
            raise ValueError("reject flag must equal statistic > critical_value")
        floor = (2.0 if self.group_mode == "exhaustive" else 1.0) / self.group_size
        if not floor <= self.p_value <= 1.0:
            raise ValueError(
                f"p-value {self.p_value} outside [{floor}, 1] for "
                f"{self.group_mode} group of size {self.group_size}"
            )


def _result(
    statistic, crit, p_value, alpha: float, group: SignGroup, variant: str, scaling: str
) -> TestResult:
    """A test's outcome with the provenance of its group."""
    return TestResult(
        statistic=float(statistic),
        critical_value=float(crit),
        p_value=float(p_value),
        reject=bool(statistic > crit),
        alpha=float(alpha),
        group_size=group.size,
        group_mode=group.mode,
        group_seed=group.seed,
        group_draws=group.draws,
        variant=variant,
        scaling=scaling,
    )


def run_test_from_scores(
    scores: np.ndarray,
    alpha: float,
    group: SignGroup,
    variant: str = "unstudentized",
    scaling: str = "root_nj",
) -> TestResult:
    """The engine for one (q,) score vector: sweep the group, take the quantile, count the ties."""
    column = run_test_columns(np.reshape(scores, (-1, 1)), alpha, group, variant)[:, 0]
    return _result(*column, alpha, group, variant, scaling)


def run_test(
    data: ClusteredDataset,
    hypothesis: LinearHypothesis,
    alpha: float,
    group: SignGroup | None = None,
    variant: str = "unstudentized",
    *,
    scaling: str = "root_nj",
) -> TestResult:
    """Test contrast'beta = value by sign-flip randomization.

    Scores come from per-cluster fits (:func:`scores_from_estimates`).
    When ``group`` is omitted an automatic one is enumerated (exhaustive
    for q <= 14, else 1000 seeded draws).
    """
    if group is None:
        group = enumerate_group(data.q, mode="auto", seed=0)
    scores = scores_from_estimates(fit_per_cluster(data), hypothesis, scaling)
    return run_test_from_scores(scores, alpha, group, variant, scaling)


def run_wald_test(
    data: ClusteredDataset,
    hypothesis: MultiHypothesis,
    alpha: float,
    group: SignGroup | None = None,
    *,
    scaling: str = "root_n",
) -> TestResult:
    """Randomization test of a multi-row restriction (quadratic form).

    A one-row restriction's quadratic form is an increasing function of
    the |mean| statistic, so its p-value is taken from the |mean| sweep
    of the same scores, with ties snapped on that scale; the statistic
    and critical value stay on the quadratic scale.
    """
    if group is None:
        group = enumerate_group(data.q, mode="auto", seed=0)
    estimates = fit_per_cluster(data)
    scores, sigma_inv = _wald_ingredients(estimates, hypothesis, scaling)
    if sigma_inv is None:
        stats = np.zeros(group.size, dtype=np.float64)
    else:
        stats = kernels.group_wald_quadratic(group.sweep(scores), sigma_inv, estimates.q)
    statistic, crit, p_value = _decide(stats, alpha)
    if hypothesis.p == 1:
        p_value = run_test_columns(scores, alpha, group)[2, 0]
    return _result(statistic, crit, p_value, alpha, group, "wald", scaling)
