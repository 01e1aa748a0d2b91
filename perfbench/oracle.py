"""Frozen reference arithmetic for the benchmark's output checks.

The benchmark's inputs come from a seed chosen at run time, so expected
results cannot be a literal table.  Instead this module recomputes them
with numpy alone, in the same floating-point operation order as the
package's reference (numpy) path at the commit that introduced the
benchmark.  The package's contract is that p-values, critical values and
interval endpoints stay bitwise equal across refactors, so the values
here are compared with ``==``, never with a tolerance.

Nothing here imports ``artcluster``: a change to the package cannot move
the expected values along with the values it reports.
"""

from __future__ import annotations

import math

import numpy as np

SNAP_RTOL = 1e-12
CEIL_GUARD = 1e-9
AUTO_SAMPLED_ABOVE = 14


# ------------------------------------------------------------------ #
# Data layout and per-cluster fits
# ------------------------------------------------------------------ #


def canonical_order(labels) -> tuple[np.ndarray, np.ndarray]:
    """Row permutation and cluster sizes, clusters by first appearance."""
    first: dict = {}
    for lab in labels:
        if lab not in first:
            first[lab] = len(first)
    idx = np.array([first[lab] for lab in labels], dtype=np.int64)
    return np.argsort(idx, kind="stable"), np.bincount(idx, minlength=len(first))


def fit(y: np.ndarray, Z: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Least squares inside each contiguous cluster; (q, d) coefficients."""
    betas = np.empty((sizes.shape[0], Z.shape[1]), dtype=np.float64)
    start = 0
    for j, size in enumerate(sizes):
        stop = start + int(size)
        betas[j] = np.linalg.lstsq(Z[start:stop], y[start:stop], rcond=None)[0]
        start = stop
    return betas


def block_layout(keys: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Time-sorted row order and block sizes (the last absorbs the rest)."""
    n = keys.shape[0]
    base = n // q
    sizes = np.full(q, base, dtype=np.int64)
    sizes[-1] = n - base * (q - 1)
    return np.argsort(keys, kind="stable"), sizes


# ------------------------------------------------------------------ #
# Sign groups and sweeps
# ------------------------------------------------------------------ #


def signs(q: int, mode: str = "auto", draws: int = 1000, seed: int = 0) -> np.ndarray:
    """The (m, q) int8 sign matrix the test engine sweeps."""
    if mode == "auto":
        mode = "exhaustive" if q <= AUTO_SAMPLED_ABOVE else "sampled"
    if mode == "exhaustive":
        idx = np.arange(1 << q, dtype=np.uint64)
        shifts = q - 1 - np.arange(q, dtype=np.uint64)
        return (1 - 2 * ((idx[:, None] >> shifts[None, :]) & 1)).astype(np.int8)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    flips = rng.integers(0, 2, size=(draws - 1, q), dtype=np.int8)
    out = np.empty((draws, q), dtype=np.int8)
    out[0] = 1
    out[1:] = 1 - 2 * flips
    return out


def group_means(sign_matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
    m, q = sign_matrix.shape
    acc = np.zeros(m, dtype=np.float64)
    for j in range(q):
        acc += sign_matrix[:, j] * values[j]
    return acc / q


def order_statistic_index(m: int, level: float) -> int:
    t = m * level
    k = math.ceil(t - CEIL_GUARD * max(1.0, abs(t)))
    return min(max(k, 1), m)


# ------------------------------------------------------------------ #
# Reported fields
# ------------------------------------------------------------------ #


def expect_test(betas, sizes, contrast, null, alpha, sign_matrix) -> dict:
    """``statistic``, ``critical_value`` and ``p_value`` of one test."""
    w = np.sqrt(sizes.astype(np.float64))
    scores = w * (betas @ contrast - null)
    stats = np.abs(group_means(sign_matrix, scores))
    observed = float(stats[0])
    ordered = np.sort(stats)
    crit = float(ordered[order_statistic_index(ordered.size, 1.0 - alpha) - 1])
    thresh = observed - SNAP_RTOL * max(1.0, abs(observed))
    p_value = float(np.count_nonzero(stats >= thresh)) / stats.shape[0]
    return {"statistic": observed, "critical_value": crit, "p_value": p_value}


def _interval_bounds(a, b, a0, b0, pm_iota):
    sgn = np.where(a >= 0.0, 1.0, -1.0)
    aabs = np.abs(a)
    babs = b * sgn
    with np.errstate(divide="ignore", invalid="ignore"):
        plus_val = (b0 + babs) / (a0 + aabs)
        minus_val = (b0 - babs) / (a0 - aabs)
    ratio_le = babs * a0 <= b0 * aabs
    ratio_ge = babs * a0 >= b0 * aabs
    zero_a = a == 0.0
    lo = np.where(ratio_le, plus_val, minus_val)
    hi = np.where(ratio_ge, plus_val, minus_val)
    lo = np.where(zero_a, (b0 - np.abs(b)) / a0, lo)
    hi = np.where(zero_a, (b0 + np.abs(b)) / a0, hi)
    lo = np.where(pm_iota, -np.inf, lo)
    hi = np.where(pm_iota, np.inf, hi)
    return lo, hi


def expect_ci(betas, sizes, contrast, alpha, sign_matrix) -> dict:
    """``lower`` and ``upper`` of the closed-form interval."""
    w = np.sqrt(sizes.astype(np.float64))
    a = group_means(sign_matrix, w)
    b = group_means(sign_matrix, w * (betas @ contrast))
    pm = np.all(sign_matrix == sign_matrix[:, :1], axis=1)
    lo, hi = _interval_bounds(a, b, float(a[0]), float(b[0]), pm)
    m = sign_matrix.shape[0]
    k = order_statistic_index(m, alpha)
    lower = float(np.sort(lo)[k - 1])
    upper = float(np.sort(hi)[m - k])
    if lower > upper:
        lower, upper = upper, lower
    return {"lower": lower, "upper": upper}


def inversion_grid_step(betas, sizes, contrast, points: int = 4001) -> float:
    """Spacing of the package's default test-inversion grid."""
    w = np.sqrt(sizes.astype(np.float64))
    cbeta = betas @ contrast
    lam0 = float(w @ cbeta) / float(w.sum())
    span = float(np.max(np.abs(cbeta - lam0)))
    span = max(span, 1e-8 * max(1.0, abs(lam0)))
    grid = np.linspace(lam0 - 10.0 * span, lam0 + 10.0 * span, points)
    return float(grid[1] - grid[0])


# ------------------------------------------------------------------ #
# Monte Carlo size study
# ------------------------------------------------------------------ #


def _generate(dgp: dict, replication: int) -> tuple[np.ndarray, np.ndarray]:
    sizes = dgp["sizes"]
    n, d = sum(sizes), len(dgp["beta"])
    rng = np.random.Generator(np.random.Philox(key=dgp["seed"]).jumped(replication + 1))
    Z = np.ones((n, d), dtype=np.float64)
    if d > 1:
        Z[:, 1:] = rng.standard_normal((n, d - 1))
    factors = rng.standard_normal(len(sizes))
    noise = rng.standard_normal(n)
    sigma_rows = np.repeat(np.asarray(dgp["sigma"], dtype=np.float64), sizes)
    factor_rows = np.repeat(factors, sizes)
    rho = float(dgp["rho"])
    eps = sigma_rows * (math.sqrt(rho) * factor_rows + math.sqrt(1.0 - rho) * noise)
    return Z @ np.asarray(dgp["beta"], dtype=np.float64) + eps, Z


def size_study_rejections(spec: dict) -> int:
    """Rejections of a ``"study": "size"`` spec with a normal covariate law."""
    dgp = spec["dgp"]
    sizes = np.asarray(dgp["sizes"], dtype=np.int64)
    contrast = np.asarray(spec["contrast"], dtype=np.float64)
    null = float(contrast @ np.asarray(dgp["beta"], dtype=np.float64))
    sign_matrix = signs(len(dgp["sizes"]), seed=dgp["seed"])
    rejections = 0
    for r in range(int(spec["replications"])):
        y, Z = _generate(dgp, r)
        fields = expect_test(fit(y, Z, sizes), sizes, contrast, null, spec["alpha"], sign_matrix)
        rejections += fields["statistic"] > fields["critical_value"]
    return rejections
