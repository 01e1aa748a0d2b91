"""Reference implementations the fast paths are checked against.

These are the package's earlier kernels, kept verbatim in arithmetic:
the explicit uint64 bit-expansion of the exhaustive sign matrix, the
column-by-column signed-mean sweep over a sign matrix, the Wald
quadratic form over that sweep, the all-entries-equal +-identity mask
and the full-sort order statistics.  The production code must match
them bit for bit.
"""

import numpy as np

from artcluster.randtest import order_statistic_index


def bit_expansion_signs(q: int) -> np.ndarray:
    """All 2^q sign vectors, lexicographic with +1 first, as (2^q, q) int8."""
    idx = np.arange(1 << q, dtype=np.uint64)
    shifts = q - 1 - np.arange(q, dtype=np.uint64)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)


def column_loop_means(signs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Signed means of (q,) or (q, p) values, one sign column at a time."""
    m, q = signs.shape
    if values.ndim == 1:
        acc = np.zeros(m, dtype=np.float64)
        for j in range(q):
            acc += signs[:, j] * values[j]
        return acc / q
    means = np.zeros((m, values.shape[1]), dtype=np.float64)
    for j in range(q):
        means += signs[:, j, None] * values[j][None, :]
    means /= q
    return means


def wald_quadratic_loop(signs, scores, sigma_inv) -> np.ndarray:
    """q * mean_i' sigma_inv mean_i for every row, from the column loop."""
    q = signs.shape[1]
    means = column_loop_means(signs, scores)
    m, p = means.shape
    out = np.zeros(m, dtype=np.float64)
    for r in range(p):
        acc = np.zeros(m, dtype=np.float64)
        for c in range(p):
            acc += means[:, c] * sigma_inv[c, r]
        out += acc * means[:, r]
    return out * q


def pm_iota_mask(signs: np.ndarray) -> np.ndarray:
    """Rows equal to +-identity, i.e. with all entries equal."""
    return np.all(signs == signs[:, :1], axis=1)


def sort_critical_value(values, level: float) -> float:
    """The ceil(m*level)-th smallest value, read off a full sort."""
    arr = np.sort(np.asarray(values, dtype=np.float64).reshape(-1))
    return float(arr[order_statistic_index(arr.size, level) - 1])


def sort_interval_endpoints(lo_all, hi_all, alpha: float) -> tuple[float, float]:
    """The alpha-quantile of the lower bounds and the matching upper one."""
    m = lo_all.shape[0]
    k = order_statistic_index(m, alpha)
    lower = float(np.sort(lo_all)[k - 1])
    upper = float(np.sort(hi_all)[m - k])
    if lower > upper:
        lower, upper = upper, lower
    return lower, upper


def bits(x) -> np.ndarray:
    """The float64 bit patterns of ``x``, for exact comparison."""
    return np.asarray(x, dtype=np.float64).view(np.int64)
