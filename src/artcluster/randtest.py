"""Randomization test engine: statistics, critical values, p-values.

The test statistic is the absolute mean of per-cluster scores; the
reference distribution comes from flipping the score signs with every
element of a :class:`~artcluster.groups.SignGroup` (whose row 0 is the
identity, so the observed statistic is always ``statistics[0]``).
An exhaustive group sweeps only its rows with g_0 = +1, each standing
for itself and its negation (same bits): the whole group's k-th smallest
is the half's ceil(k/2)-th, the half's own quantile, and tie shares agree.
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
    _identified_grams,
    fit_per_cluster,
    fit_restricted,
    reciprocal_condition,
)
from artcluster.groups import SignGroup, enumerate_group
from artcluster.model import ClusteredDataset, LinearHypothesis, MultiHypothesis, check_contrast_length

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


def cluster_weights(sizes: np.ndarray, scaling: str = "root_nj") -> np.ndarray:
    """Per-cluster weights w_j: sqrt(n_j), or the uniform sqrt(n) under ``scaling="root_n"``."""
    if scaling == "root_nj":
        return np.sqrt(sizes.astype(np.float64))
    if scaling == "root_n":
        return np.full(sizes.shape[0], math.sqrt(float(sizes.sum())))
    raise ValueError(f"unknown scaling {scaling!r} (use 'root_nj' or 'root_n')")


def weighted_scores(
    betas: np.ndarray, sizes: np.ndarray, contrast, values=0.0, scaling: str = "root_nj"
) -> np.ndarray:
    """The per-cluster scores w_j * (contrast'beta_j - value), every path's one formula.

    ``betas`` is (q, d_z) or a stack (..., q, d_z); ``contrast`` is (d_z,),
    giving (..., q) scores, or (d_z, p), giving (..., q, p).  ``values``
    broadcasts against ``betas @ contrast``; the weights
    (:func:`cluster_weights`) broadcast along the q axis.  Huge inputs
    overflow to inf or NaN without a warning; the sweep refuses such scores.
    """
    contrast = np.asarray(contrast, dtype=np.float64)
    check_contrast_length(contrast, betas.shape[-1])
    w = cluster_weights(sizes, scaling)
    with np.errstate(over="ignore", invalid="ignore"):
        return (w[:, None] if contrast.ndim == 2 else w) * (betas @ contrast - values)


def scores_from_estimates(
    estimates: ClusterEstimates,
    hypothesis: LinearHypothesis,
    scaling: str = "root_nj",
) -> np.ndarray:
    """Centered per-cluster estimates, (q,): sqrt(n_j) * (c'beta_j - value).

    ``scaling="root_n"`` replaces sqrt(n_j) with the uniform sqrt(n)
    factor used by the multi-row statistic.
    """
    return weighted_scores(
        estimates.betas, estimates.sizes, hypothesis.contrast, hypothesis.value, scaling
    )


def scores_via_restricted(
    data: ClusteredDataset, hypothesis: LinearHypothesis
) -> np.ndarray:
    """Scores, (q,), from the restricted-residual route (single full-sample fit).

    With beta_r from :func:`~artcluster.estimation.fit_restricted` and
    residuals r = y - Z beta_r, cluster j's score is
        c' Gram_j^{-1} (1/sqrt(n_j)) * sum_i Z_ij * r_ij,
    which equals sqrt(n_j) * (c'beta_j - value) from the per-cluster fits
    (:func:`scores_from_estimates`); exposed separately so the two
    routes can be cross-checked.
    """
    beta_r = fit_restricted(data, hypothesis)
    grams = _identified_grams(data.covariates[None], data.offsets, data.labels)[0]
    residuals = data.outcomes - data.covariates @ beta_r
    out = np.empty(data.q, dtype=np.float64)
    for j in range(data.q):
        s = data.cluster_slice(j)
        Z_j = data.covariates[s]
        v = Z_j.T @ residuals[s] / np.sqrt(Z_j.shape[0])
        out[j] = float(hypothesis.contrast @ np.linalg.solve(grams[j], v))
    return out


# ------------------------------------------------------------------ #
# Statistics
# ------------------------------------------------------------------ #


def _wald_ingredients(
    estimates: ClusterEstimates, hypothesis: MultiHypothesis
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-cluster multi-row scores, weighted by sqrt(n), and the inverse outer-product matrix.

    The outer-product matrix is built from unsigned scores (sign flips
    leave it unchanged).  Returns ``(scores, None)`` in the degenerate
    all-zero-score case, where the statistic is identically zero.  Scores
    whose outer-product matrix overflows raise ``ValueError``.
    """
    scores = weighted_scores(  # (q, p)
        estimates.betas, estimates.sizes, hypothesis.restriction.T, hypothesis.values, "root_n"
    )
    if not scores.any():
        return scores, None
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = scores.T @ scores / estimates.q
    if not np.isfinite(sigma).all():
        raise ValueError(
            "the scores' outer-product matrix overflows float64; "
            "rescale the outcome or the restriction"
        )
    rc = reciprocal_condition(sigma)
    if not np.isfinite(rc) or rc < 1e-12:
        raise SingularSigma(
            f"score outer-product matrix is numerically singular (rcond {rc:.3e})"
        )
    return scores, np.linalg.inv(sigma)


# ------------------------------------------------------------------ #
# Critical values and p-values, along the last axis
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
    ceil(m*level)-th smallest value.  (m,) values give a float; (k, m)
    values give the quantile of each row.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need a nonempty multiset")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    k = order_statistic_index(arr.shape[-1], level)
    crit = np.partition(arr, k - 1, axis=-1)[..., k - 1]
    return float(crit) if arr.ndim == 1 else crit


def pvalue_from_statistics(statistics: np.ndarray, observed):
    """Fraction of group statistics >= the observed one (tie-snapped).

    (m,) statistics and a float observed value give a float; (k, m)
    statistics and (k,) observed values give the p-value of each row.
    """
    thresh = observed - snap_tolerance(observed)
    p = (statistics >= thresh[..., None]).sum(axis=-1) / statistics.shape[-1]
    return float(p) if statistics.ndim == 1 else p


# ------------------------------------------------------------------ #
# Test runner
# ------------------------------------------------------------------ #

# The engine sweeps at most this many statistics at once, i.e. chunks of
# max(1, 2^15 // m) score columns, m = ``group.rows``, so each of a chunk's
# temporaries holds at most max(2^15, m) float64 entries: 256 kB for groups of up
# to 2^15 rows, one column of m entries (8 MB at m = 2^20) above that.
# A chunk's sweep is (columns, m), one contiguous row of m statistics per
# score column, so the quantile and the count decide it in place.  Timing
# 2^12-2^18 on the engine of a perfbench ``inversion`` instance (q = 10,
# 4001 columns) found 2^15 and 2^16 within 10% of each other and faster
# than the rest; 2^15 holds half the memory.
_CHUNK_STATISTICS = 2**15


def _decide(stats: np.ndarray, alpha: float) -> tuple:
    """Observed statistic, critical value and p-value of swept statistics.

    ``stats`` holds the m group statistics of one test as (m,), or of k
    tests as the rows of a (k, m) block; entry 0 of a row is the observed one.
    """
    observed = stats[..., 0]
    return observed, critical_value(stats, 1.0 - alpha), pvalue_from_statistics(stats, observed)


def _studentize(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sqrt(q) * t / sqrt(mean(v^2) - t^2) for |mean| values t of each column.

    ``t`` is (r, k) for the (q, k) score block; zero or negative spread
    maps to ``+inf``.  Every rounded step is monotone in t, so the map
    keeps the order of the |mean| statistics.  A column whose spread
    overflows, or whose squares underflow (largest |v| below 2^-511), is
    redone on its values and t scaled by 2^-e, e the exponent of its
    largest |v|: the map is scale-free, and scaling by a power of two is
    exact.
    """
    q = values.shape[0]
    acc = np.zeros(values.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for x in values:
            acc += x * x
        var = acc / q - t * t
    out = np.full(t.shape, np.inf)
    ok = var > 0.0
    out[ok] = math.sqrt(q) * t[ok] / np.sqrt(var[ok])
    top = np.abs(values).max(axis=0)
    bad = ~np.all(np.isfinite(var), axis=0) | ((top > 0.0) & (top < 2.0**-511))
    if bad.any():
        e = -np.frexp(top[bad])[1]
        out[:, bad] = _studentize(np.ldexp(values[:, bad], e), np.ldexp(t[:, bad], e))
    return out


def check_variant(variant: str) -> None:
    if variant not in ("unstudentized", "studentized"):
        raise ValueError(f"unknown variant {variant!r}")


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
    check_variant(variant)
    values = np.asarray(values, dtype=np.float64)
    width = max(1, min(_CHUNK_STATISTICS // group.rows, values.shape[1]))
    out = np.empty((3, values.shape[1]))
    for start in range(0, values.shape[1], width):
        means = group.sweep(values[:, start : start + width])
        out[:, start : start + width] = _decide(np.abs(means, out=means), alpha)
    if variant == "studentized":
        out[:2] = _studentize(values, out[:2])
        if not np.all(np.isfinite(out[0])):
            raise DegenerateVariance("observed signed scores have zero spread")
    return out


@dataclass(frozen=True)
class TestResult:
    """Outcome of one randomization test, with the group it swept."""

    statistic: float
    critical_value: float
    p_value: float
    alpha: float
    group: SignGroup
    variant: str = "unstudentized"

    def __post_init__(self):
        for name in ("statistic", "critical_value", "p_value", "alpha"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        floor = self.group.forced_ties / self.group.size
        if not floor <= self.p_value <= 1.0:
            raise ValueError(
                f"p-value {self.p_value} outside [{floor}, 1] for "
                f"{self.group.mode} group of size {self.group.size}"
            )

    @property
    def reject(self) -> bool:
        return self.statistic > self.critical_value


def run_test_from_scores(
    scores: np.ndarray,
    alpha: float,
    group: SignGroup,
    variant: str = "unstudentized",
) -> TestResult:
    """The engine for one (q,) score vector: sweep the group, take the quantile, count the ties."""
    column = run_test_columns(np.reshape(scores, (-1, 1)), alpha, group, variant)[:, 0]
    return TestResult(*column, alpha, group, variant)


def run_test(
    data: ClusteredDataset,
    hypothesis: LinearHypothesis,
    alpha: float,
    group: SignGroup | None = None,
    variant: str = "unstudentized",
) -> TestResult:
    """Test contrast'beta = value by sign-flip randomization.

    Scores come from per-cluster fits (:func:`scores_from_estimates`).
    When ``group`` is omitted an automatic one is enumerated (exhaustive
    for q <= 14, else 1000 seeded draws).
    """
    if group is None:
        group = enumerate_group(data.q, mode="auto", seed=0)
    scores = scores_from_estimates(fit_per_cluster(data), hypothesis)
    return run_test_from_scores(scores, alpha, group, variant)


def run_wald_test(
    data: ClusteredDataset,
    hypothesis: MultiHypothesis,
    alpha: float,
    group: SignGroup | None = None,
) -> TestResult:
    """Randomization test of a multi-row restriction (quadratic form).

    A one-row restriction's quadratic form is an increasing function of
    the |mean| statistic, so its p-value is read off the |mean| row of
    the same sweep, with ties snapped on that scale; the statistic and
    critical value stay on the quadratic scale.
    """
    if group is None:
        group = enumerate_group(data.q, mode="auto", seed=0)
    estimates = fit_per_cluster(data)
    scores, sigma_inv = _wald_ingredients(estimates, hypothesis)
    means = group.sweep(scores)
    if sigma_inv is None:
        stats = np.zeros(group.rows, dtype=np.float64)
    else:
        stats = kernels.group_wald_quadratic(means, sigma_inv, estimates.q)
    statistic, crit, p_value = _decide(stats, alpha)
    if hypothesis.p == 1:
        t = np.abs(means[0])
        p_value = pvalue_from_statistics(t, t[0])
    return TestResult(statistic, crit, p_value, alpha, group, "wald")
