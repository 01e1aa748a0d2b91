"""Closed-form confidence intervals for a scalar contrast.

The non-rejected values of the null form a closed interval.  Its
endpoints are quantiles of per-group crossing points of V-shaped maps:
for each sign pattern g the statistic as a function of the null value is
|b(g) - value * a(g)|, and the bounds are where that V crosses the
identity pattern's V.  ``interval_by_inversion`` is the brute-force
grid-scan oracle that runs the real test engine at every grid value; it
stays in the package because the tests cross-check the closed form
against it and the benchmark times it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from artcluster import kernels
from artcluster.errors import GridTooCoarse
from artcluster.estimation import ClusterEstimates
from artcluster.groups import SignGroup
from artcluster.model import _frozen, check_contrast_length
from artcluster.randtest import cluster_weights, critical_value, run_test_columns, weighted_scores

__all__ = [
    "ConfidenceInterval",
    "IntervalInputs",
    "interval",
    "interval_by_inversion",
    "interval_inputs",
    "inversion_scan",
    "default_inversion_grid",
]

GRID_POINTS_DEFAULT = 4001
GRID_HALF_WIDTHS = 10.0


# ------------------------------------------------------------------ #
# Inputs
# ------------------------------------------------------------------ #


def _center(estimates: ClusterEstimates, contrast) -> tuple[float, np.ndarray]:
    """The p-value-1 point, the sqrt(n_j)-weighted mean of c'beta_j, and c'beta."""
    c = np.asarray(contrast, dtype=np.float64).reshape(-1)
    check_contrast_length(c, estimates.d_z)
    w = cluster_weights(estimates.sizes)
    # huge contrasts overflow here; interval_by_inversion refuses a non-finite center
    with np.errstate(over="ignore", invalid="ignore"):
        cbeta = estimates.betas @ c
        return float(w @ cbeta) / float(w.sum()), cbeta


@dataclass(frozen=True)
class IntervalInputs:
    """Slope/offset summaries a(g), b(g) for every row a group sweeps.

    a(g) = mean_j sqrt(n_j) g_j and b(g) = mean_j sqrt(n_j) g_j c'beta_j,
    stored in group row order; row 0 is the identity, so
    ``a[0] > 0`` and the p-value-1 center is ``lambda0 = b[0] / a[0]``.
    An exhaustive group gives its g_0 = +1 half: -g has -a(g), -b(g) and the
    same bounds, so :func:`interval` gives the same bits on half or all rows.
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
    def lambda0(self) -> float:
        return float(self.b[0]) / float(self.a[0])

    @property
    def pm_identity(self) -> np.ndarray:
        """Boolean mask of the rows equal to +-identity, read off ``a``.

        Row 0 alone in an exhaustive group's half.  Exact: flipping every
        sign negates a sweep's sum exactly, and rounding is monotone, so no
        swept |a(g)| exceeds a[0].  Any other row lies at least
        2 min_j sqrt(n_j) / q below a[0], which for int64 sizes is far
        above the rounding error of a q-term sum.
        """
        return np.abs(self.a) == self.a[0]


def interval_inputs(
    estimates: ClusterEstimates, contrast: np.ndarray, group: SignGroup
) -> IntervalInputs:
    """Compute a(g), b(g) for every row of the group's sweep from per-cluster fits.

    b sweeps the scores at null value 0, w_j c'beta_j; the sweep refuses
    scores that overflow, as the test's does.
    """
    b_scores = weighted_scores(estimates.betas, estimates.sizes, np.ravel(contrast))
    a, b = group.sweep(np.stack([cluster_weights(estimates.sizes), b_scores], axis=1))
    return IntervalInputs(a=a, b=b)


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
    bounds (i.e. their ceil(m*alpha)-th largest), both taken with the
    test's :func:`~artcluster.randtest.critical_value`.  Infinite entries
    participate, so an unbounded interval is a legal return -- forced
    whenever alpha <= the share of +-identity rows, whose bounds are infinite.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    lo_all, hi_all = kernels.interval_bounds(inputs.a, inputs.b, inputs.pm_identity)
    lower = critical_value(lo_all, alpha)
    upper = -critical_value(np.negative(hi_all, out=hi_all), alpha)
    if lower > upper:  # ulp inversion on point intervals (equal estimates and sizes)
        lower, upper = upper, lower
    lam0 = inputs.lambda0
    tol = _rounding_tol(lam0)
    if lower > lam0 + tol or upper < lam0 - tol:
        raise ValueError("the center point must lie inside the interval")
    return ConfidenceInterval(lower=lower, upper=upper, alpha=float(alpha), lambda0=lam0)


# ------------------------------------------------------------------ #
# Test-inversion oracle
# ------------------------------------------------------------------ #


def default_inversion_grid(
    estimates: ClusterEstimates,
    contrast: np.ndarray,
    points: int = GRID_POINTS_DEFAULT,
) -> np.ndarray:
    """Symmetric grid around the center, wide enough to bracket the interval."""
    lam0, cbeta = _center(estimates, contrast)
    # huge contrasts overflow here; interval_by_inversion refuses a non-finite grid
    with np.errstate(over="ignore", invalid="ignore"):
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
    column = np.reshape(contrast, (-1, 1))
    scores = weighted_scores(estimates.betas, estimates.sizes, column, grid)  # (q, k)
    statistic, crit, _ = run_test_columns(scores, alpha, group)
    return ~(statistic > crit)


def interval_by_inversion(
    estimates: ClusterEstimates,
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
    ValueError
        When the center overflows float64, or the grid holds fewer than
        two values, a non-finite one, or not the center.
    """
    lam0, _ = _center(estimates, contrast)
    if not math.isfinite(lam0):
        raise ValueError(
            f"the center of contrast {np.ravel(contrast).tolist()} overflows float64; "
            "rescale the outcome or the contrast"
        )
    if grid is None:
        grid = default_inversion_grid(estimates, contrast)
    grid = np.asarray(grid, dtype=np.float64).reshape(-1)
    if grid.size < 2 or not np.all(np.isfinite(grid)):
        raise ValueError("grid must contain at least two finite values")
    if not grid[0] <= lam0 <= grid[-1]:
        raise ValueError("grid must contain the center point")
    keep = inversion_scan(estimates, contrast, alpha, group, grid)
    if not keep.any():
        raise GridTooCoarse("no grid value survived test inversion")
    kept = grid[keep]
    return ConfidenceInterval(
        lower=float(kept[0]), upper=float(kept[-1]), alpha=float(alpha), lambda0=lam0
    )
