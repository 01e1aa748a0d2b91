"""Reference implementations the fast paths are checked against.

These are the package's earlier kernels, kept verbatim in arithmetic:
the explicit uint64 bit-expansion of the exhaustive sign matrix, the
column-by-column signed-mean sweep over a sign matrix, the Wald
quadratic form over that sweep, the all-entries-equal +-identity mask,
the full-sort order statistics, the one-null-at-a-time test decision
and the statistics at a single sign vector.  The production code must
match them bit for bit.
"""

import math

import numpy as np

from artcluster.errors import DegenerateVariance
from artcluster.randtest import _wald_ingredients, order_statistic_index


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


def decision_loop(signs, values, alpha: float, variant: str = "unstudentized") -> np.ndarray:
    """Statistic, critical value and p-value of each column of (q, k) scores.

    One column at a time: the column-loop sweep, the sorted quantile and
    a ``>=`` count against the observed statistic snapped down by
    1e-12 * max(1, |T|).  Returns a (3, k) array.
    """
    q = signs.shape[1]
    out = np.empty((3, values.shape[1]))
    for i, v in enumerate(values.T):
        t = np.abs(column_loop_means(signs, v))
        if variant == "studentized":
            acc = 0.0
            for j in range(q):
                acc += v[j] * v[j]
            var = acc / q - t * t
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(var > 0.0, math.sqrt(q) * t / np.sqrt(var), np.inf)
            if not math.isfinite(t[0]):
                raise DegenerateVariance("observed signed scores have zero spread")
        observed = float(t[0])
        thresh = observed - 1e-12 * max(1.0, abs(observed))
        out[:, i] = (
            observed,
            sort_critical_value(t, 1.0 - alpha),
            float(np.count_nonzero(t >= thresh)) / t.shape[0],
        )
    return out


# ------------------------------------------------------------------ #
# Statistics at a single sign vector
# ------------------------------------------------------------------ #


def as_sign_vector(g, q: int | None = None) -> np.ndarray:
    """Validate and return ``g`` as a 1-D int8 array of +-1 entries."""
    arr = np.asarray(g)
    if arr.ndim != 1:
        raise ValueError("sign vector must be 1-D")
    out = arr.astype(np.int8)
    if not np.all(np.abs(out) == 1) or not np.array_equal(out, arr):
        raise ValueError("sign vector entries must be +1 or -1")
    if q is not None and out.shape[0] != q:
        raise ValueError(f"sign vector has length {out.shape[0]}, expected {q}")
    return out


def statistic(scores, g) -> float:
    """Absolute mean of the sign-flipped (q,) scores for one sign vector."""
    q = len(scores)
    signs = as_sign_vector(g, q)
    return abs(float(signs @ np.asarray(scores, dtype=np.float64)) / q)


def statistic_studentized(scores, g) -> float:
    """Studentized variant: sqrt(q) * |mean| / sd of the signed (q,) scores.

    Raises :class:`DegenerateVariance` when all signed scores are equal.
    """
    q = len(scores)
    signs = as_sign_vector(g, q)
    flipped = signs * np.asarray(scores, dtype=np.float64)
    mean = float(flipped.mean())
    sd = math.sqrt(float(np.mean((flipped - mean) ** 2)))
    if sd == 0.0:
        raise DegenerateVariance("signed scores have zero spread")
    return math.sqrt(q) * abs(mean) / sd


def statistic_wald(estimates, hypothesis, g, scaling: str = "root_n") -> float:
    """Quadratic-form statistic for a multi-row restriction, at one g."""
    signs = as_sign_vector(g, estimates.q)
    scores, sigma_inv = _wald_ingredients(estimates, hypothesis, scaling)
    if sigma_inv is None:
        return 0.0
    mean = (signs[:, None] * scores).mean(axis=0)
    return float(estimates.q * mean @ sigma_inv @ mean)


def bits(x) -> np.ndarray:
    """The float64 bit patterns of ``x``, for exact comparison."""
    return np.asarray(x, dtype=np.float64).view(np.int64)
