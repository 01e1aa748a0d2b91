"""Closed-form confidence intervals for a scalar contrast, plus oracles.

The non-rejected values of the null form a closed interval.  Its
endpoints are quantiles of per-group crossing points of V-shaped maps:
for each sign pattern g the statistic as a function of the null value is
|b(g) - value * a(g)|, and the bounds are where that V crosses the
identity pattern's V.  ``interval_by_inversion`` is the brute-force
grid-scan oracle used to cross-check the closed form in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from artcluster import kernels
from artcluster.errors import ArtClusterError, GridTooCoarse
from artcluster.estimation import ClusterEstimates, fit_per_cluster
from artcluster.groups import SignGroup
from artcluster.model import ClusteredDataset, _frozen
from artcluster.randtest import order_statistic_index, pvalue_from_statistics, run_test_columns

__all__ = [
    "ConfidenceInterval",
    "IntervalInputs",
    "interval",
    "interval_by_inversion",
    "interval_inputs",
    "inversion_scan",
    "default_inversion_grid",
    "per_group_bounds",
    "pvalue_profile",
]

GRID_POINTS_DEFAULT = 4001
GRID_HALF_WIDTHS = 10.0


# ------------------------------------------------------------------ #
# Inputs
# ------------------------------------------------------------------ #


def _cluster_terms(
    estimates: ClusterEstimates, contrast: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster weights sqrt(n_j) and contrasts c'beta_j."""
    c = np.asarray(contrast, dtype=np.float64).reshape(-1)
    if c.shape[0] != estimates.d_z:
        raise ValueError("contrast length must equal the covariate count")
    return np.sqrt(estimates.sizes.astype(np.float64)), estimates.betas @ c


def _center(w: np.ndarray, cbeta: np.ndarray) -> float:
    """The p-value-1 point: the sqrt(n_j)-weighted mean of c'beta_j."""
    return float(w @ cbeta) / float(w.sum())


@dataclass(frozen=True)
class IntervalInputs:
    """Slope/offset summaries a(g), b(g) for every group element.

    a(g) = mean_j sqrt(n_j) g_j and b(g) = mean_j sqrt(n_j) g_j c'beta_j,
    stored in group row order; row 0 is the identity, so
    ``a[0] > 0`` and the p-value-1 center is ``lambda0 = b[0] / a[0]``.
    """

    a: np.ndarray  # (m,)
    b: np.ndarray  # (m,)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64).reshape(-1)
        b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        if a.shape != b.shape:
            raise ValueError("a and b must have one entry per group element")
        if not (a[0] > 0.0):
            raise ValueError("identity row must have positive weight mean")
        if np.any(np.abs(a) > a[0] * (1.0 + 1e-12)):
            raise ValueError("|a(g)| cannot exceed a(identity)")
        for name, arr in (("a", a), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "b", _frozen(b))

    @property
    def a_iota(self) -> float:
        return float(self.a[0])

    @property
    def b_iota(self) -> float:
        return float(self.b[0])

    @property
    def lambda0(self) -> float:
        return self.b_iota / self.a_iota

    @property
    def pm_identity(self) -> np.ndarray:
        """Boolean mask of the rows equal to +-identity, read off ``a``.

        Exact: flipping every sign negates a sweep's sum exactly, and
        rounding is monotone, so no swept |a(g)| exceeds a[0].  Any other
        row lies at least 2 min_j sqrt(n_j) / q below a[0], which for int64
        sizes is far above the rounding error of a q-term sum.
        """
        return np.abs(self.a) == self.a[0]


def interval_inputs(
    estimates: ClusterEstimates, contrast: np.ndarray, group: SignGroup
) -> IntervalInputs:
    """Compute a(g), b(g) for every group element from per-cluster fits."""
    w, cbeta = _cluster_terms(estimates, contrast)
    return IntervalInputs(a=group.sweep(w), b=group.sweep(w * cbeta))


# ------------------------------------------------------------------ #
# Per-group bounds
# ------------------------------------------------------------------ #


def per_group_bounds(inputs: IntervalInputs) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper crossing points for every group row (floats, +-inf)."""
    return kernels.interval_bounds(
        inputs.a, inputs.b, inputs.a_iota, inputs.b_iota, inputs.pm_identity
    )


# ------------------------------------------------------------------ #
# The interval
# ------------------------------------------------------------------ #


def _rounding_tol(lambda0: float) -> float:
    # degenerate instances (all cluster estimates equal) can leave the
    # endpoints an ulp out of order; tolerate rounding-scale noise only
    return 4e-16 * max(1.0, abs(lambda0))


@dataclass(frozen=True)
class ConfidenceInterval:
    """A closed interval [lower, upper] of floats; -inf/+inf when unbounded."""

    lower: float
    upper: float
    alpha: float
    lambda0: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval endpoints must not be NaN")
        if self.upper < self.lower - _rounding_tol(self.lambda0):
            raise ValueError("interval endpoints out of order")

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)


def interval(inputs: IntervalInputs, alpha: float) -> ConfidenceInterval:
    """Closed-form interval: alpha-quantiles of the per-group bounds.

    The lower endpoint is the alpha-quantile of the lower bounds; the
    upper endpoint is minus the alpha-quantile of the negated upper
    bounds (i.e. their ceil(m*alpha)-th largest).  Infinite entries
    participate, so an unbounded interval is a legal return -- forced
    whenever alpha <= the share of +-identity rows, whose bounds are infinite.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    lo_all, hi_all = per_group_bounds(inputs)
    m = inputs.a.shape[0]
    k = order_statistic_index(m, alpha)
    lower = float(np.partition(lo_all, k - 1)[k - 1])
    upper = float(np.partition(hi_all, m - k)[m - k])
    if lower > upper:  # ulp inversion on point intervals (equal estimates and sizes)
        lower, upper = upper, lower
    lam0 = inputs.lambda0
    tol = _rounding_tol(lam0)
    if lower > lam0 + tol or upper < lam0 - tol:
        raise ValueError("the center point must lie inside the interval")
    return ConfidenceInterval(lower=lower, upper=upper, alpha=float(alpha), lambda0=lam0)


# ------------------------------------------------------------------ #
# P-value profile
# ------------------------------------------------------------------ #


def _profile_direct(inputs: IntervalInputs, value: float) -> float:
    """p-value at ``value`` straight from |b - value*a| comparisons.

    Uses the engine's tie-snapping rule, so at the center point (where
    the reference statistic is a rounding residue of order 1e-16) every
    group element still counts and the profile equals 1 exactly.  Row 0
    of the group is the identity, so ``t[0]`` is the observed statistic.
    """
    t = np.abs(inputs.b - value * inputs.a)
    return pvalue_from_statistics(t, float(t[0]))


def pvalue_profile(inputs: IntervalInputs, value: float) -> float:
    """The randomization p-value as a function of the null value.

    Evaluates both the direct form (statistic comparisons) and the
    piecewise form (counting per-group bounds on the relevant side of
    the center); the two must agree, and the piecewise value is
    returned.  Equals 1 at the center, is non-decreasing below it and
    non-increasing above it.
    """
    value = float(value)
    direct = _profile_direct(inputs, value)
    lam0 = inputs.lambda0
    if value < lam0:
        lo_all, _ = per_group_bounds(inputs)
        piecewise = float(np.count_nonzero(value >= lo_all)) / inputs.a.shape[0]
    elif value > lam0:
        _, hi_all = per_group_bounds(inputs)
        piecewise = float(np.count_nonzero(value <= hi_all)) / inputs.a.shape[0]
    else:
        piecewise = 1.0
    if piecewise != direct:
        raise ArtClusterError(
            f"p-value profile self-check failed at {value!r}: "
            f"direct {direct} vs piecewise {piecewise}"
        )
    return piecewise


# ------------------------------------------------------------------ #
# Test-inversion oracle
# ------------------------------------------------------------------ #


def default_inversion_grid(
    estimates: ClusterEstimates,
    contrast: np.ndarray,
    points: int = GRID_POINTS_DEFAULT,
) -> np.ndarray:
    """Symmetric grid around the center, wide enough to bracket the interval."""
    w, cbeta = _cluster_terms(estimates, contrast)
    lam0 = _center(w, cbeta)
    span = float(np.max(np.abs(cbeta - lam0)))
    span = max(span, 1e-8 * max(1.0, abs(lam0)))
    half = GRID_HALF_WIDTHS * span
    return np.linspace(lam0 - half, lam0 + half, points)


def inversion_scan(
    estimates: ClusterEstimates,
    contrast: np.ndarray,
    alpha: float,
    group: SignGroup,
    grid: np.ndarray,
) -> np.ndarray:
    """Run the full test at every grid value; True where not rejected.

    The per-cluster fits do not depend on the null value, so they are
    reused; the scores of all grid values go through the real test
    engine as the columns of one block.
    """
    w, cbeta = _cluster_terms(estimates, contrast)
    statistic, crit, _ = run_test_columns(w[:, None] * (cbeta[:, None] - grid), alpha, group)
    return ~(statistic > crit)


def interval_by_inversion(
    data: ClusteredDataset | ClusterEstimates,
    contrast: np.ndarray,
    alpha: float,
    group: SignGroup,
    grid: np.ndarray | None = None,
) -> ConfidenceInterval:
    """Brute-force oracle: smallest and largest non-rejected grid value.

    A test-support tool for cross-checking :func:`interval`; endpoints
    are only grid-step accurate and an unbounded true interval shows up
    as the grid edges.

    Raises
    ------
    GridTooCoarse
        When every grid value is rejected.
    """
    estimates = data if isinstance(data, ClusterEstimates) else fit_per_cluster(data)
    if grid is None:
        grid = default_inversion_grid(estimates, contrast)
    grid = np.asarray(grid, dtype=np.float64).reshape(-1)
    if grid.size < 2 or not np.all(np.isfinite(grid)):
        raise ValueError("grid must contain at least two finite values")
    lam0 = _center(*_cluster_terms(estimates, contrast))
    if not grid[0] <= lam0 <= grid[-1]:
        raise ValueError("grid must contain the center point")
    keep = inversion_scan(estimates, contrast, alpha, group, grid)
    if not keep.any():
        raise GridTooCoarse("no grid value survived test inversion")
    kept = grid[keep]
    return ConfidenceInterval(
        lower=float(kept[0]), upper=float(kept[-1]), alpha=float(alpha), lambda0=lam0
    )
