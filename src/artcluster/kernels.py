"""Hot numeric kernels: sweeping statistics over a sign group.

:func:`double_sums` sweeps the first half of the exhaustive group, the
2^(q-1) sign vectors with g_0 = +1, by prefix-sum doubling in place,
without ever building a sign matrix; it doubles one value column in a
contiguous row, or a block of columns side by side with the group axis
first.  :func:`group_sums` sweeps an int8 sign matrix, such as one
chunk of a sampled group's rows, and gives the signed sums of (q,)
values as (m,), and of (q, p) values as (p, m); :func:`group_means`
divides them by q.  :func:`least_dividend` finds, for a threshold t on
the 1/q scale, the least sum whose quotient by q rounds to at least t, so
a decision counts raw sums and never divides them.
:func:`group_wald_quadratic` turns swept (p, m) means into the multi-row
quadratic form and :func:`interval_bounds` gives each row's interval
bounds, the min and max of the two points where its V-shaped map
crosses the identity's.

The accumulation order is fixed -- columns left to right starting from
+0.0, then the quadratic form row by row -- so results are reproducible
bit for bit in any row chunks, and both sweeps give equal bits on equal rows.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "double_sums",
    "group_means",
    "group_sums",
    "group_wald_quadratic",
    "interval_bounds",
    "least_dividend",
]


# ------------------------------------------------------------------ #
# Signed sums:  out[i] = sum_j signs[i, j] * values[j]  (means: / q)
# ------------------------------------------------------------------ #
#
# The sums over the first k+1 values are the sums over the first k
# values with +v_k and -v_k appended, the second copy after the first:
#     level[i] = prev[i] + v_k,   level[r + i] = prev[i] - v_k,
# for the r rows of prev.  Starting from +0.0 this is the column loop's
# left-to-right order, and x - v equals x + (-v) exactly, so every sweep
# gives the same bits for the same sign vector, in any row order.


def double_sums(sums: np.ndarray, values: np.ndarray, rows: int = 1) -> None:
    """Double the signed sums in ``sums[:rows]`` across each of ``values``, in place.

    The group axis comes first: ``sums`` is (rows * 2^n,) for (n,)
    values, or (rows * 2^n, w) for (n, w) values, each column of sums
    taking its own value column.  Each value x writes rows [r, 2r) as
    ``sums[:r] - x``, then adds x to rows [:r], so a row's sign of x is
    set by bit log2(r) of its index.  Starting from
    ``sums[0] = 0.0 + v_0``, row i of the exhaustive sweep's half has
    g_j = -1 exactly where bit j - 1 of i is set.
    """
    for x in values:
        np.subtract(sums[:rows], x, out=sums[rows : 2 * rows])
        sums[:rows] += x
        rows *= 2


def group_sums(signs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum of sign-flipped values for every row of an explicit sign matrix."""
    m, q = signs.shape
    v = np.asarray(values, dtype=np.float64)
    # a trailing unit axis lets one value scale a whole sign column
    scale = v[..., None]
    acc = np.zeros((*v.shape[1:], m), dtype=np.float64)
    for j in range(q):
        acc += signs[:, j] * scale[j]
    return acc


def group_means(signs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mean of sign-flipped values for every row of an explicit sign matrix."""
    return group_sums(signs, values) / signs.shape[1]


# ------------------------------------------------------------------ #
# Least dividend:  the smallest float a >= 0 with fl(a / q) >= t
# ------------------------------------------------------------------ #
#
# fl(a / q) is nondecreasing in a, so {a >= 0 : fl(a / q) >= t} is every
# float from one least element L on, and counting |s| >= L counts exactly
# the quotients fl(|s| / q) >= t.  Nonnegative floats order like their
# int64 bit patterns, so L is found by bisecting the patterns from a
# bracket around fl(t * q), clamped to the float max where it overflows.
# Where the quotients near t are normal, L lies within two ulps of that
# guess, and two halvings settle it.  Where they are subnormal
# (t < 2^-1022), many dividends share one quotient and the bracket can
# miss; such a t is bisected over every nonnegative float instead.

_FLOAT_MAX = np.finfo(np.float64).max
_INF_BITS = np.float64(np.inf).view(np.int64)


def least_dividend(t, q: int) -> np.ndarray:
    """The least float a >= 0 with fl(a / q) >= t for each t > 0, and t itself for t <= 0.

    So for every float a >= 0 and q >= 1, ``a >= L`` exactly where
    ``a / q >= t``: a t above fl(max / q) gives inf, which no finite a
    reaches, and q = 1 gives t back.
    """
    t = np.asarray(t, dtype=np.float64)
    if q == 1:
        return t
    positive = t > 0.0
    with np.errstate(over="ignore"):
        guess = np.where(positive, np.minimum(t * q, _FLOAT_MAX), 0.0).view(np.int64)
    lo = np.maximum(guess - 2, 0)
    hi = np.minimum(guess + 2, _INF_BITS)
    missed = positive & ((lo.view(np.float64) / q >= t) | (hi.view(np.float64) / q < t))
    lo = np.where(missed, 0, lo)
    hi = np.where(missed, _INF_BITS, np.where(positive, hi, 0))
    # where t > 0: fl(lo / q) < t <= fl(hi / q); a pair one apart stays put
    while (hi - lo > 1).any():
        mid = lo + (hi - lo) // 2
        reach = mid.view(np.float64) / q >= t
        hi = np.where(reach, mid, hi)
        lo = np.where(reach, lo, mid)
    return np.where(positive, hi.view(np.float64), t)


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
