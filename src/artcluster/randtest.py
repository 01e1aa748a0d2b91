"""Randomization test engine: statistics, critical values, p-values.

The test statistic is the absolute mean of per-cluster scores; the
reference distribution comes from flipping the score signs with every
element of a :class:`~artcluster.groups.SignGroup` (whose row 0 is the
identity, so the observed statistic is always ``statistics[0]``).

Tie handling: indicator comparisons use exact ``>=`` on doubles after
snapping values within ``1e-12 * max(1, |T|)`` of the observed statistic
onto it.  The equivalence theorems behind the engine hold exactly in
real arithmetic; snapping keeps rounding noise from breaking them.
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
from artcluster.groups import SignGroup, as_sign_vector, enumerate_group
from artcluster.model import ClusteredDataset, LinearHypothesis, MultiHypothesis, _frozen

__all__ = [
    "SNAP_RTOL",
    "ScoreVector",
    "TestResult",
    "critical_value",
    "group_statistics",
    "pvalue_from_statistics",
    "run_test",
    "run_test_from_scores",
    "run_wald_test",
    "scores_from_estimates",
    "scores_via_restricted",
    "statistic",
    "statistic_studentized",
    "statistic_wald",
]

SNAP_RTOL = 1e-12


def snap_tolerance(reference: float) -> float:
    return SNAP_RTOL * max(1.0, abs(reference))


# ------------------------------------------------------------------ #
# Scores
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class ScoreVector:
    """Per-cluster scores and the cluster sizes they were scaled by."""

    values: np.ndarray  # (q,)
    sizes: np.ndarray  # (q,)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        s = np.asarray(self.sizes, dtype=np.int64).reshape(-1)
        if v.shape != s.shape:
            raise ValueError("scores and sizes must align")
        if not np.all(np.isfinite(v)):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "sizes", _frozen(s))

    @property
    def q(self) -> int:
        return self.values.shape[0]


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
) -> ScoreVector:
    """Centered per-cluster estimates: sqrt(n_j) * (c'beta_j - value).

    ``scaling="root_n"`` replaces sqrt(n_j) with the uniform sqrt(n)
    factor used by the multi-row statistic.
    """
    c = hypothesis.contrast
    if c.shape[0] != estimates.d_z:
        raise ValueError("contrast length must equal the covariate count")
    w = _scale_weights(estimates.sizes, scaling)
    values = w * (estimates.betas @ c - hypothesis.value)
    return ScoreVector(values=values, sizes=estimates.sizes)


def scores_via_restricted(
    data: ClusteredDataset, hypothesis: LinearHypothesis
) -> ScoreVector:
    """Scores from the restricted-residual route (single full-sample fit).

    Numerically equivalent to :func:`scores_from_estimates` on the
    per-cluster fits; exposed separately so the two routes can be
    cross-checked.
    """
    fit = fit_restricted(data, hypothesis)
    estimates = fit_per_cluster(data)
    values = cluster_scores(data, fit, estimates, hypothesis)
    return ScoreVector(values=values, sizes=data.sizes)


# ------------------------------------------------------------------ #
# Statistics
# ------------------------------------------------------------------ #


def statistic(scores: ScoreVector, g) -> float:
    """Absolute mean of the sign-flipped scores for one sign vector."""
    signs = as_sign_vector(g, scores.q)
    return abs(float(signs @ scores.values) / scores.q)


def statistic_studentized(scores: ScoreVector, g) -> float:
    """Studentized variant: sqrt(q) * |mean| / sd of the signed scores.

    Raises :class:`DegenerateVariance` when all signed scores are equal.
    A strictly increasing function of the unstudentized statistic, so it
    ranks sign vectors identically.
    """
    signs = as_sign_vector(g, scores.q)
    flipped = signs * scores.values
    mean = float(flipped.mean())
    sd = math.sqrt(float(np.mean((flipped - mean) ** 2)))
    if sd == 0.0:
        raise DegenerateVariance("signed scores have zero spread")
    return math.sqrt(scores.q) * abs(mean) / sd


def statistic_wald(
    estimates: ClusterEstimates,
    hypothesis: MultiHypothesis,
    g,
    scaling: str = "root_n",
) -> float:
    """Quadratic-form statistic for a multi-row restriction, at one g."""
    signs = as_sign_vector(g, estimates.q)
    scores, sigma_inv = _wald_ingredients(estimates, hypothesis, scaling)
    if sigma_inv is None:
        return 0.0
    mean = (signs[:, None] * scores).mean(axis=0)
    return float(estimates.q * mean @ sigma_inv @ mean)


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


def group_statistics(
    scores: ScoreVector, group: SignGroup, variant: str = "unstudentized"
) -> np.ndarray:
    """Evaluate the statistic at every group element (row 0 = observed).

    The studentized sweep maps zero-spread sign patterns to ``+inf``,
    the closure of the monotone transform linking the two variants; the
    single-vector :func:`statistic_studentized` raises instead.
    """
    means = group.sweep(scores.values)
    t = np.abs(means)
    if variant == "unstudentized":
        return t
    if variant == "studentized":
        v = scores.values
        acc = 0.0
        for j in range(scores.q):
            acc += v[j] * v[j]
        vn = acc / scores.q
        var = vn - t * t
        out = np.full(t.shape[0], np.inf)
        ok = var > 0.0
        out[ok] = math.sqrt(scores.q) * t[ok] / np.sqrt(var[ok])
        return out
    raise ValueError(f"unknown variant {variant!r}")


# ------------------------------------------------------------------ #
# Critical values and p-values
# ------------------------------------------------------------------ #

# Guard against float fuzz in m*level before taking the ceiling: when
# the product lands within 1e-9 (relative) of an integer, use it.
_CEIL_GUARD = 1e-9


def order_statistic_index(m: int, level: float) -> int:
    """1-based k with: k-th smallest of m values is the level-quantile."""
    t = m * level
    k = math.ceil(t - _CEIL_GUARD * max(1.0, abs(t)))
    return min(max(k, 1), m)


def critical_value(values, level: float) -> float:
    """The ``level``-quantile of a multiset of reals.

    inf{u : fraction of values <= u is >= level}; equals the
    ceil(m*level)-th smallest value.
    """
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("need a nonempty multiset")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    k = order_statistic_index(arr.size, level)
    return float(np.partition(arr, k - 1)[k - 1])


def pvalue_from_statistics(statistics: np.ndarray, observed: float) -> float:
    """Fraction of group statistics >= the observed one (tie-snapped)."""
    thresh = observed - snap_tolerance(observed)
    return float(np.count_nonzero(statistics >= thresh)) / statistics.shape[0]


# ------------------------------------------------------------------ #
# Test runner
# ------------------------------------------------------------------ #


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


def _result_from_statistics(
    stats: np.ndarray, alpha: float, group: SignGroup, variant: str, scaling: str
) -> TestResult:
    """Critical value, p-value and provenance of a swept group (row 0 observed)."""
    observed = float(stats[0])
    crit = critical_value(stats, 1.0 - alpha)
    return TestResult(
        statistic=observed,
        critical_value=crit,
        p_value=pvalue_from_statistics(stats, observed),
        reject=bool(observed > crit),
        alpha=float(alpha),
        group_size=group.size,
        group_mode=group.mode,
        group_seed=group.seed,
        group_draws=group.draws,
        variant=variant,
        scaling=scaling,
    )


def run_test_from_scores(
    scores: ScoreVector,
    alpha: float,
    group: SignGroup,
    variant: str = "unstudentized",
    scaling: str = "root_nj",
) -> TestResult:
    """Core engine: sweep the group, take the quantile, count the ties."""
    stats = group_statistics(scores, group, variant)
    if not math.isfinite(stats[0]) and variant == "studentized":
        raise DegenerateVariance("observed signed scores have zero spread")
    return _result_from_statistics(stats, alpha, group, variant, scaling)


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
    """Randomization test of a multi-row restriction (quadratic form)."""
    if group is None:
        group = enumerate_group(data.q, mode="auto", seed=0)
    estimates = fit_per_cluster(data)
    scores, sigma_inv = _wald_ingredients(estimates, hypothesis, scaling)
    if sigma_inv is None:
        stats = np.zeros(group.size, dtype=np.float64)
    else:
        stats = kernels.group_wald_quadratic(group.sweep(scores), sigma_inv, estimates.q)
    return _result_from_statistics(stats, alpha, group, "wald", scaling)
