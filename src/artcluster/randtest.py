"""Randomization test engine: statistics, critical values, p-values.

The test statistic is the absolute mean of per-cluster scores; the
reference distribution comes from flipping the score signs with every
element of a :class:`~artcluster.groups.SignGroup` (whose row 0 is the
identity, so the observed statistic is always ``statistics[0]``).
An exhaustive group sweeps only its rows with g_0 = +1, each standing
for itself and its negation (same bits): the whole group's k-th smallest
is the half's ceil(k/2)-th, the half's own quantile, and tie shares agree.
One engine, :func:`run_test_columns`, tests a (q, k) block of score
vectors -- k null values or k replications -- in one sweep, chunk by
chunk, and counts each column's tie-snapped p-value; its callers read
only p-values, so it takes no quantile.  A single test sweeps once,
counts, then partitions its statistics in place for the critical value.

Tie handling: statistics within ``SNAP_RTOL`` times the row's largest one
of the observed statistic count as ties.  The equivalence theorems hold
exactly in real arithmetic; snapping keeps rounding noise from breaking
them.  A test rejects where this p-value is at most alpha.  The engine
counts without dividing by q: fl(|s| / q) is nondecreasing in the raw
|sum| s, so it reaches the snapped threshold exactly where |s| reaches
one least sum per column (:func:`kernels.least_dividend`).  The largest
statistic is read off the overflow guard's sum of |v_j| for an
exhaustive group, and off each chunk's largest |sum| for a sampled one.
:func:`pvalue_from_statistics` is the same count with divisor 1.

Both variants are decided on the one ``|mean|`` sweep, and ties are
snapped on that scale.  The studentized statistic is an increasing
function of ``|mean|`` under every sign change, so the engine maps only
the observed statistic and the critical value onto the studentized
scale; its p-value is the unstudentized one by construction.
The studentized spread and the Wald form are scale-free: each column of
values is scaled by 2^e, e minus the ``np.frexp`` exponent of its largest
magnitude, so no square overflows or underflows; nothing is scaled back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from artcluster import kernels
from artcluster.errors import DegenerateVariance, SingularSigma
from artcluster.estimation import ClusterEstimates, fit_per_cluster, gram_rcond
from artcluster.groups import SignGroup, check_score_sums, enumerate_group
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
]

SNAP_RTOL = 1e-12


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


# ------------------------------------------------------------------ #
# Statistics
# ------------------------------------------------------------------ #


def _wald_ingredients(
    estimates: ClusterEstimates, hypothesis: MultiHypothesis
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Per-cluster multi-row scores weighted by sqrt(n), the inverse outer-product matrix, and e.

    The matrix is built from the unsigned scores, column j scaled by 2^e_j
    for e_j minus the exponent of its largest magnitude, so the rank check is
    unit-free per row; a caller scales the swept means by 2^e too.  Returns
    ``(scores, None, e)`` when every score is zero, and refuses non-finite
    scores as the sweep does (``ValueError``).
    """
    scores = weighted_scores(  # (q, p)
        estimates.betas, estimates.sizes, hypothesis.restriction.T, hypothesis.values, "root_n"
    )
    check_score_sums(scores)
    e = -np.frexp(np.abs(scores).max(axis=0))[1]
    if not scores.any():
        return scores, None, e
    scaled = np.ldexp(scores, e)
    rc = gram_rcond(np.linalg.svd(scaled, compute_uv=False), scores.shape[1])
    if rc < 1e-12:
        raise SingularSigma(
            f"score outer-product matrix is numerically singular (rcond {rc:.3e})"
        )
    return scores, np.linalg.inv(scaled.T @ scaled / estimates.q), e


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
    values give the quantile of each row.  A writeable float64 array is
    partitioned in place, with no copy, so its entries come back reordered.
    """
    arr = np.asarray(values, dtype=np.float64)
    if not arr.flags.writeable:
        arr = arr.copy()
    if arr.size == 0:
        raise ValueError("need a nonempty multiset")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    k = order_statistic_index(arr.shape[-1], level)
    arr.partition(k - 1, axis=-1)
    crit = arr[..., k - 1]
    return float(crit) if arr.ndim == 1 else crit


def _snap_limits(observed, top, q: int) -> np.ndarray:
    """The least raw |sum| whose statistic counts: the tie-snapped threshold on the sums' scale.

    ``observed`` and ``top`` are each row's observed and largest statistic
    on the 1/q scale; a statistic counts where it reaches
    T - ``SNAP_RTOL`` * top, and fl(|s| / q) reaches that exactly where
    |s| reaches :func:`kernels.least_dividend` of it.
    """
    return kernels.least_dividend(observed - SNAP_RTOL * top, q)


def _share_reached(values: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """The share of each row of (..., m) values at or above the row's limit."""
    m = values.shape[-1]
    # summing the mask's bytes into int32 is about twice as fast as bool.sum()
    reached = (values >= limits[..., None]).view(np.uint8)
    return np.add.reduce(reached, axis=-1, dtype=np.int32 if m < 2**31 else np.int64) / m


def pvalue_from_statistics(statistics: np.ndarray, observed):
    """Fraction of group statistics >= the observed one, tie-snapped.

    A statistic counts where it reaches T - ``SNAP_RTOL`` times the row's
    largest statistic, for the observed T: the engine's count with
    divisor 1.  (m,) statistics and a float observed value give a float;
    (k, m) statistics and (k,) observed values give the p-value of each row.
    """
    p = _share_reached(statistics, _snap_limits(observed, statistics.max(axis=-1), 1))
    return float(p) if statistics.ndim == 1 else p


# ------------------------------------------------------------------ #
# Test runner
# ------------------------------------------------------------------ #

# The engine sweeps at most this many statistics at once, i.e. chunks of
# max(1, 2^17 // m) score columns, m = ``group.rows``, so a chunk's buffer
# holds at most max(2^17, m) float64 entries: 1 MB for groups of up to 2^17
# rows, one column of m entries (4 MB at m = 2^19) above that, and its
# comparison mask one byte per entry.  An exhaustive sweep's shared head rows
# (:meth:`SignGroup.sweep_chunks`) hold at most as many.  Timing 2^15-2^18
# on the perfbench ``inversion`` op (q = 10, 4001 columns, 4 instances;
# chunk sizes interleaved, medians of 15 rounds in each of 4 processes on a
# 2-vCPU container) gave passes of 38.7-39.1, 29.9-30.3, 28.3-28.9 and
# 35.9-36.8 ms, counting raw sums: 2^17 is the fastest in every process.
_CHUNK_STATISTICS = 2**17


def _studentize(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sqrt(q) * t / sqrt(mean(v^2) - t^2) for |mean| values t of each column.

    ``t`` is (r, k) for the (q, k) score block; zero or negative spread
    maps to ``+inf``.  Every rounded step is monotone in t, so the map
    keeps the order of the |mean| statistics.  Each column and its t are
    first scaled by 2^e, e minus the exponent of the column's largest |v|.
    """
    q = values.shape[0]
    e = -np.frexp(np.abs(values).max(axis=0))[1]
    t = np.ldexp(t, e)
    acc = np.zeros(values.shape[1])
    for x in np.ldexp(values, e):
        acc += x * x
    var = acc / q - t * t
    out = np.full(t.shape, np.inf)
    ok = var > 0.0
    out[ok] = math.sqrt(q) * t[ok] / np.sqrt(var[ok])
    return out


def check_variant(variant: str) -> None:
    if variant not in ("unstudentized", "studentized"):
        raise ValueError(f"unknown variant {variant!r}")


def run_test_columns(
    values: np.ndarray,
    group: SignGroup,
    variant: str = "unstudentized",
) -> np.ndarray:
    """The randomization test of each column of a (q, k) block of scores.

    Returns a (2, k) array: the observed statistics and the tie-snapped
    p-values; a test at level alpha rejects a column where its p-value is
    at most alpha.  Each column gets the same p-value as a test of that
    column alone, so one null value or replication and many give the same
    bits.  The chunks are counted on raw |signed sums| against each
    column's least counting sum (:func:`_snap_limits`), with no division
    by q.  An exhaustive group's largest |sum| is the overflow guard's sum
    of |v_j|, so its chunks need no max either.  The studentized variant
    maps the observed statistic through :func:`_studentize` and keeps its
    p-value.
    """
    check_variant(variant)
    values = np.asarray(values, dtype=np.float64)
    q = group.q
    total, chunks = group.sweep_chunks(values, _CHUNK_STATISTICS)
    out = np.empty((2, values.shape[1]))
    # the identity row's sums in sweep order; the sign of a zero sum is lost to abs
    observed = out[0]
    observed[:] = values[0]
    for row in values[1:]:
        observed += row
    np.abs(observed, out=observed)
    observed /= q
    if group.mode == "exhaustive":
        limits = _snap_limits(observed, total / q, q)
    start = 0
    for sums in chunks:
        stats = np.abs(sums, out=sums)
        stop = start + len(stats)
        if group.mode == "exhaustive":
            chunk_limits = limits[start:stop]
        else:
            chunk_limits = _snap_limits(observed[start:stop], stats.max(axis=-1) / q, q)
        out[1, start:stop] = _share_reached(stats, chunk_limits)
        start = stop
    if variant == "studentized":
        out[:1] = _studentize(values, out[:1])
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
        return self.p_value <= self.alpha


def run_test_from_scores(
    scores: np.ndarray,
    alpha: float,
    group: SignGroup,
    variant: str = "unstudentized",
) -> TestResult:
    """The test of one (q,) score vector: sweep the group, count the ties, take the quantile.

    All in place, so a sampled test holds 9 B per draw: its means and one
    comparison mask.
    """
    check_variant(variant)
    values = np.reshape(np.asarray(scores, dtype=np.float64), (-1, 1))
    (stats,) = group.sweep(values)
    np.abs(stats, out=stats)
    statistic = stats[0]
    p_value = pvalue_from_statistics(stats, statistic)
    crit = critical_value(stats, 1.0 - alpha)
    if variant == "studentized":
        statistic, crit = _studentize(values, np.array([[statistic], [crit]]))[:, 0]
        if not math.isfinite(statistic):
            raise DegenerateVariance("observed signed scores have zero spread")
    return TestResult(statistic, crit, p_value, alpha, group, variant)


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
    scores, sigma_inv, e = _wald_ingredients(estimates, hypothesis)
    means = group.sweep(scores)
    if sigma_inv is None:
        stats = np.zeros(group.rows, dtype=np.float64)
    else:
        stats = kernels.group_wald_quadratic(np.ldexp(means, e[:, None]), sigma_inv, estimates.q)
    # a one-row restriction takes its p-value from the |mean| row
    row = stats if hypothesis.p > 1 else np.abs(means[0])
    p_value = pvalue_from_statistics(row, row[0])
    statistic = stats[0]
    return TestResult(statistic, critical_value(stats, 1.0 - alpha), p_value, alpha, group, "wald")
