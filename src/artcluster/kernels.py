"""Hot numeric kernels: sweeping statistics over the whole sign group.

:func:`exhaustive_means` sweeps the full group of 2^q sign vectors by
prefix-sum doubling, without ever building its (2^q, q) sign matrix;
:func:`group_means` sweeps an int8 sign matrix, such as one chunk of a
sampled group's rows; both return the signed means of (q,) values as
(m,), and of (q, p) values as (p, m), one contiguous row per value
column.  :func:`group_wald_quadratic` turns swept (p, m) means into the
multi-row quadratic form and :func:`interval_bounds` gives each row's
interval bounds, the min and max of the two points where its V-shaped
map crosses the identity's.

The accumulation order is fixed -- columns left to right starting from
+0.0, then the quadratic form row by row -- so results are reproducible
bit for bit in any row chunks, and both sweeps give equal bits on equal rows.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "exhaustive_means",
    "group_means",
    "group_wald_quadratic",
    "interval_bounds",
]


# ------------------------------------------------------------------ #
# Signed means:  out[i] = (1/q) * sum_j signs[i, j] * values[j]
# ------------------------------------------------------------------ #
#
# Exhaustive rows are in lexicographic order with +1 before -1, so the
# sums over the first k+1 columns are the sums over the first k columns
# with +v_k and -v_k appended, interleaved:
#     level[2i] = prev[i] + v_k,   level[2i + 1] = prev[i] - v_k.
# Starting from +0.0 this is the column loop's left-to-right order, and
# x - v equals x + (-v) exactly, so both sweeps give the same bits.
# The group axis is last: (q, p) values double p rows side by side, each
# row adding its own value, and (q,) values double one row.


def exhaustive_means(values: np.ndarray) -> np.ndarray:
    """Mean of sign-flipped values for all 2^q sign vectors, in order."""
    v = np.asarray(values, dtype=np.float64)
    sums = np.zeros((*v.shape[1:], 1))
    for x in v[..., None]:
        level = np.empty((*v.shape[1:], 2 * sums.shape[-1]))
        np.add(sums, x, out=level[..., 0::2])
        np.subtract(sums, x, out=level[..., 1::2])
        sums = level
    sums /= v.shape[0]
    return sums


def group_means(signs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mean of sign-flipped values for every row of an explicit sign matrix."""
    m, q = signs.shape
    v = np.asarray(values, dtype=np.float64)
    # a trailing unit axis lets one value scale a whole sign column
    scale = v[..., None]
    acc = np.zeros((*v.shape[1:], m), dtype=np.float64)
    for j in range(q):
        acc += signs[:, j] * scale[j]
    return acc / q


# ------------------------------------------------------------------ #
# Wald quadratic form:  out[i] = q * mean_i' sigma_inv mean_i
# where mean_i is column i of the swept (p, m) means
# ------------------------------------------------------------------ #


def group_wald_quadratic(means: np.ndarray, sigma_inv: np.ndarray, q: int) -> np.ndarray:
    p, m = means.shape
    out = np.zeros(m, dtype=np.float64)
    for r in range(p):
        acc = np.zeros(m, dtype=np.float64)
        for c in range(p):
            acc += means[c] * sigma_inv[c, r]
        out += acc * means[r]
    return out * q


# ------------------------------------------------------------------ #
# Per-group interval bounds (crossing points of the V-shaped maps)
# ------------------------------------------------------------------ #
#
# a, b are the slope/offset summaries of each group element; row 0 is
# the identity vector, with a0 = a[0] and b0 = b[0], and |a| <= a0.  The V's
# |b - v*a| and |b0 - v*a0| cross where b0 - v*a0 = +-(b - v*a), at
#     P = (b0 + b) / (a0 + a)   and   M = (b0 - b) / (a0 - a),
# and the row's bounds are min(P, M) and max(P, M).  Negating a and b
# swaps P and M, so {P, M} is the same pair for either sign of a, and
# a = 0 needs no branch: the pair is (b0 +- b) / a0.  The +-identity rows
# (``pm_iota``) give 0/0 in one quotient; their bounds are (-inf, +inf)
# by definition, and the mask overwrites the NaN.


def interval_bounds(
    a: np.ndarray, b: np.ndarray, pm_iota: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    a0, b0 = float(a[0]), float(b[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        plus = (b0 + b) / (a0 + a)
        minus = (b0 - b) / (a0 - a)
        lo = np.minimum(plus, minus)
        hi = np.maximum(plus, minus, out=plus)
    lo[pm_iota] = -np.inf
    hi[pm_iota] = np.inf
    return lo, hi
