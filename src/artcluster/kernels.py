"""Hot numeric kernels: sweeping statistics over the whole sign group.

Each kernel is a vectorized NumPy sweep over the rows of an int8 sign
matrix: :func:`group_means` (signed means), :func:`group_wald_quadratic`
(the multi-row quadratic form) and :func:`interval_bounds` (per-row
crossing points of the confidence-interval maps).

The accumulation order is fixed -- columns left to right, then the
quadratic form row by row -- so results are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "group_means",
    "group_wald_quadratic",
    "interval_bounds",
]


# ------------------------------------------------------------------ #
# Signed means:  out[i] = (1/q) * sum_j signs[i, j] * values[j]
# ------------------------------------------------------------------ #


def group_means(signs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mean of sign-flipped values for every group row."""
    m, q = signs.shape
    acc = np.zeros(m, dtype=np.float64)
    for j in range(q):
        acc += signs[:, j] * values[j]
    return acc / q


# ------------------------------------------------------------------ #
# Wald quadratic form:  out[i] = q * mean_i' sigma_inv mean_i
# where mean_i = (1/q) * sum_j signs[i, j] * scores[j, :]
# ------------------------------------------------------------------ #


def group_wald_quadratic(
    signs: np.ndarray, scores: np.ndarray, sigma_inv: np.ndarray
) -> np.ndarray:
    m, q = signs.shape
    p = scores.shape[1]
    means = np.zeros((m, p), dtype=np.float64)
    for j in range(q):
        means += signs[:, j, None] * scores[j][None, :]
    means /= q
    out = np.zeros(m, dtype=np.float64)
    for r in range(p):
        acc = np.zeros(m, dtype=np.float64)
        for c in range(p):
            acc += means[:, c] * sigma_inv[c, r]
        out += acc * means[:, r]
    return out * q


# ------------------------------------------------------------------ #
# Per-group interval bounds (crossing points of the V-shaped maps)
# ------------------------------------------------------------------ #
#
# a, b are the slope/offset summaries of each group element; a0 = a[0]
# and b0 = b[0] belong to the identity vector.  ``pm_iota`` flags rows
# equal to +-identity, whose bounds are (-inf, +inf) by definition --
# checking it first keeps the a0 - |a| denominator away from zero.
# The two finite crossings are evaluated in the cross-multiplied form
#     (b0 + b*sgn(a)) / (a0 + |a|)   and   (b0 - b*sgn(a)) / (a0 - |a|)
# which avoids dividing by a itself; the branch test b/a <= b0/a0 is
# likewise cross-multiplied to b*sgn(a)*a0 <= b0*|a|.


def interval_bounds(
    a: np.ndarray, b: np.ndarray, a0: float, b0: float, pm_iota: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    sgn = np.where(a >= 0.0, 1.0, -1.0)
    aabs = np.abs(a)
    babs = b * sgn
    with np.errstate(divide="ignore", invalid="ignore"):
        plus_val = (b0 + babs) / (a0 + aabs)
        minus_val = (b0 - babs) / (a0 - aabs)
    ratio_le = babs * a0 <= b0 * aabs
    ratio_ge = babs * a0 >= b0 * aabs
    zero_a = a == 0.0
    center_lo = (b0 - np.abs(b)) / a0
    center_hi = (b0 + np.abs(b)) / a0
    lo = np.where(ratio_le, plus_val, minus_val)
    hi = np.where(ratio_ge, plus_val, minus_val)
    lo = np.where(zero_a, center_lo, lo)
    hi = np.where(zero_a, center_hi, hi)
    lo = np.where(pm_iota, -np.inf, lo)
    hi = np.where(pm_iota, np.inf, hi)
    return lo, hi
