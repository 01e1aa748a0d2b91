"""Reference implementations the fast paths are checked against.

These are the package's earlier kernels, kept verbatim in arithmetic:
the explicit uint64 bit-expansion of the exhaustive sign matrix and
the whole group's sweep over it (the fast sweep returns its first half), the
one-shot draw of a sampled group's sign matrix from its seed, the
column-by-column signed-mean sweep over a sign matrix, the Wald
quadratic form over the (m, p) means of that sweep, the
all-entries-equal +-identity mask,
the branch-by-branch interval bounds, the full-sort order statistics,
the one-null-at-a-time test decision, the statistics at a single sign
vector, the score formula one entry at a time, the p-value profile of
an interval, the Monte Carlo study that draws, fits and scores one
replication at a time, the blocks route that labels every row and
canonicalizes the time-sorted rows, and the label coding that numbers
labels one row at a time and stable-sorts the int64 codes.  The
production code must match them bit for bit.

One more is the paper's second route to the scores, which the package
does not take: a full-sample fit under the null and each cluster's
weighted restricted residuals (:func:`scores_via_restricted`).  It
equals the package's route in real arithmetic, so the package's scores
must match it to a tolerance (criterion 1), not bit for bit.
"""

import math

import numpy as np

from artcluster import kernels
from artcluster.blocks import plan_blocks
from artcluster.errors import DegenerateVariance, IdentificationFailure
from artcluster.estimation import RCOND_THRESHOLD, fit_per_cluster, gram_rcond
from artcluster.model import ClusteredDataset, canonicalize, check_contrast_length
from artcluster.randtest import _wald_ingredients, order_statistic_index


def bit_expansion_signs(q: int) -> np.ndarray:
    """All 2^q sign vectors as (2^q, q) int8, in the order the doubling sweep builds them.

    Row i has g_0 = -1 where bit q - 1 of i is set, and g_j = -1 for
    j >= 1 where bit j - 1 is set: the first half is the rows with
    g_0 = +1, row i's g_1..g_{q-1} are the bits of i from the lowest up,
    and row 2^q - 1 - i is row i negated.
    """
    idx = np.arange(1 << q, dtype=np.uint64)
    shifts = np.roll(np.arange(q, dtype=np.uint64), 1)  # q - 1, 0, 1, ..., q - 2
    bits = (idx[:, None] >> shifts[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)


def exhaustive_half(full: np.ndarray, even: bool = False) -> np.ndarray:
    """The first half of an exhaustive oracle's rows (axis 0): those with g_0 = +1.

    Row m - 1 - i of the group is row i negated, and an exhaustive sweep
    returns only rows 0..m/2 - 1.  Asserts that the
    second half mirrors the first: the exact negation (a zero may carry
    either sign, so equal values and equal |value| bits), or with
    ``even``, for a statistic of the row such as a quadratic form, equal bits.
    """
    half = full.shape[0] // 2
    first, mirror = full[:half], full[half:][::-1]
    if even:
        assert np.array_equal(bits(mirror), bits(first))
    else:
        assert np.array_equal(mirror, -first)
        assert np.array_equal(bits(np.abs(mirror)), bits(np.abs(first)))
    return first


def exhaustive_sweep(values: np.ndarray) -> np.ndarray:
    """The whole 2^q-row group's signed means, in the sweep's group-last layout."""
    values = np.asarray(values, dtype=np.float64)
    return np.moveaxis(column_loop_means(bit_expansion_signs(values.shape[0]), values), 0, -1)


def sampled_signs(q: int, draws: int, seed: int) -> np.ndarray:
    """The (draws, q) int8 rows of a sampled group, drawn in one shot.

    Identity first, then ``draws - 1`` rows of fair coin flips from
    ``Philox(key=seed)``, filling the block row by row.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    flips = rng.integers(0, 2, size=(draws - 1, q), dtype=np.int8)
    signs = np.empty((draws, q), dtype=np.int8)
    signs[0] = 1
    signs[1:] = 1 - 2 * flips
    return signs


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


def wald_quadratic_rows(means, sigma_inv, q: int) -> np.ndarray:
    """q * mean_i' sigma_inv mean_i for every row i of (m, p) means."""
    m, p = means.shape
    out = np.zeros(m, dtype=np.float64)
    for r in range(p):
        acc = np.zeros(m, dtype=np.float64)
        for c in range(p):
            acc += means[:, c] * sigma_inv[c, r]
        out += acc * means[:, r]
    return out * q


def wald_quadratic_loop(signs, scores, sigma_inv) -> np.ndarray:
    """The Wald quadratic form of every row, from the column loop."""
    return wald_quadratic_rows(column_loop_means(signs, scores), sigma_inv, signs.shape[1])


def pm_iota_mask(signs: np.ndarray) -> np.ndarray:
    """Rows equal to +-identity, i.e. with all entries equal."""
    return np.all(signs == signs[:, :1], axis=1)


def interval_bounds_branches(a, b, a0, b0, pm_iota):
    """Per-row interval bounds by the sign, ratio and zero-slope branches.

    The crossings are (b0 + b*sgn(a)) / (a0 + |a|) and
    (b0 - b*sgn(a)) / (a0 - |a|); the lower bound is the first when
    b/a <= b0/a0 (cross-multiplied), a = 0 takes (b0 -+ |b|) / a0, and
    +-identity rows are (-inf, +inf).
    """
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


def snapped_pvalue(t) -> float:
    """The share of statistics t at or above t[0] snapped down by 1e-12 times the largest."""
    t = np.asarray(t, dtype=np.float64)
    return float(np.count_nonzero(t >= t[0] - 1e-12 * t.max())) / t.size


def decision_loop(signs, values, alpha: float, variant: str = "unstudentized") -> np.ndarray:
    """Statistic, critical value and p-value of each column of (q, k) scores.

    One column at a time: the column-loop sweep, the sorted quantile and
    :func:`snapped_pvalue`, on the studentized scale for that variant.
    The studentized map is scale-free, so a column whose squares underflow
    (largest |v| below 2^-511) is mapped on v and t scaled exactly by
    2^-e, e the exponent of its largest |v|.  Returns a (3, k) array.
    """
    q = signs.shape[1]
    out = np.empty((3, values.shape[1]))
    for i, v in enumerate(values.T):
        t = np.abs(column_loop_means(signs, v))
        if variant == "studentized":
            top = float(np.max(np.abs(v)))
            if 0.0 < top < 2.0**-511:
                e = -math.frexp(top)[1]
                v, t = np.ldexp(v, e), np.ldexp(t, e)
            acc = 0.0
            for j in range(q):
                acc += v[j] * v[j]
            var = acc / q - t * t
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(var > 0.0, math.sqrt(q) * t / np.sqrt(var), np.inf)
            if not math.isfinite(t[0]):
                raise DegenerateVariance("observed signed scores have zero spread")
        out[:, i] = t[0], sort_critical_value(t, 1.0 - alpha), snapped_pvalue(t)
    return out


def engine_loop(signs, values, variant: str = "unstudentized") -> np.ndarray:
    """What ``run_test_columns`` gives for (q, k) scores, from :func:`decision_loop`: (2, k).

    Row 0 is each column's observed statistic on the variant's scale, row 1
    its p-value, which is the unstudentized one for either variant.
    """
    out = decision_loop(signs, values, 0.5)[::2]
    if variant == "studentized":
        out[0] = decision_loop(signs, values, 0.5, variant)[0]
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


def statistic_wald(estimates, hypothesis, g) -> float:
    """Quadratic-form statistic for a multi-row restriction, at one g."""
    signs = as_sign_vector(g, estimates.q)
    scores, sigma_inv, e = _wald_ingredients(estimates, hypothesis)
    if sigma_inv is None:
        return 0.0
    mean = (signs[:, None] * np.ldexp(scores, e)).mean(axis=0)
    return float(estimates.q * mean @ sigma_inv @ mean)


# ------------------------------------------------------------------ #
# Scores and the p-value profile
# ------------------------------------------------------------------ #


def weighted_scores_loop(betas, sizes, contrast, values=0.0, scaling="root_nj") -> np.ndarray:
    """``randtest.weighted_scores``, w_j * (contrast'beta_j - value), one float at a time.

    Each c'beta_j sums its products in order, so this matches a matmul bit
    for bit only where that sum is exact in every order.
    """
    c = np.asarray(contrast, dtype=np.float64)
    cbeta = np.empty(betas.shape[:-1] + c.shape[1:])
    for idx in np.ndindex(cbeta.shape):
        row, col = idx[: betas.ndim - 1], idx[betas.ndim - 1 :]
        cbeta[idx] = sum((float(betas[row + (k,)]) * float(c[(k,) + col])
                          for k in range(c.shape[0])), 0.0)
    cbeta, values = np.broadcast_arrays(cbeta, values)
    out = np.empty(cbeta.shape)
    for idx in np.ndindex(out.shape):  # the q axis is last, or next to last for (d_z, p)
        n = sizes.sum() if scaling == "root_n" else sizes[idx[-c.ndim]]
        out[idx] = math.sqrt(float(n)) * (float(cbeta[idx]) - float(values[idx]))
    return out


def pvalue_profile(inputs, value: float) -> float:
    """The randomization p-value of interval inputs at a null value, found two ways.

    The direct form is :func:`snapped_pvalue` of the statistics
    |b - value*a|, snapped as the engine does, so the center gives 1
    exactly; the piecewise form counts the per-group bounds on the value's
    side of the center.  Asserts that they agree.
    """
    value, m = float(value), inputs.a.shape[0]
    direct = snapped_pvalue(np.abs(inputs.b - value * inputs.a))
    lo_all, hi_all = kernels.interval_bounds(inputs.a, inputs.b, inputs.pm_identity)
    side = value >= lo_all if value < inputs.lambda0 else value <= hi_all
    piecewise = 1.0 if value == inputs.lambda0 else np.count_nonzero(side) / m
    assert piecewise == direct, f"profile forms disagree at {value!r}"
    return piecewise


def bits(x) -> np.ndarray:
    """The float64 bit patterns of ``x``, for exact comparison."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


def assert_same_selection(got: float, expected: float, pool: np.ndarray) -> None:
    """Equal bits, except that +0.0 and -0.0 tie when the pool holds both."""
    zeros = pool[pool == 0.0]
    if np.signbit(zeros).any() and not np.signbit(zeros).all():
        assert got == expected
    else:
        assert bits(got) == bits(expected)


# ------------------------------------------------------------------ #
# Monte Carlo studies, one replication at a time
# ------------------------------------------------------------------ #


def generate_loop(spec, replication: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes (n,) and covariates (n, d_z) of one replication, drawn alone."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed).jumped(replication + 1))
    n, d = spec.n, spec.d_z
    Z = np.ones((n, d), dtype=np.float64)
    if d > 1:
        if spec.covariate_law == "normal":
            Z[:, 1:] = rng.standard_normal((n, d - 1))
        else:
            Z[:, 1:] = np.exp(rng.standard_normal((n, d - 1)))
    factors = rng.standard_normal(spec.q)
    noise = rng.standard_normal(n)
    sigma_rows = np.repeat(np.asarray(spec.sigma), spec.sizes)
    factor_rows = np.repeat(factors, spec.sizes)
    eps = sigma_rows * (
        math.sqrt(spec.rho) * factor_rows + math.sqrt(1.0 - spec.rho) * noise
    )
    return Z @ np.asarray(spec.beta) + eps, Z


def gram_svd_rcond(Z_j) -> float:
    """The earlier identification rule: sigma_min / sigma_max of (1/n_j) Z_j'Z_j by its own svd."""
    gram = Z_j.T @ Z_j / Z_j.shape[0]
    sv = np.linalg.svd(gram, compute_uv=False)
    return 0.0 if sv[0] == 0.0 else float(sv[-1] / sv[0])


def fit_loop(y, Z, sizes) -> np.ndarray:
    """Per-cluster betas (q, d_z): one ``np.linalg.lstsq`` per cluster.

    Raises ``IdentificationFailure`` labelled with the index of the first
    cluster whose (s_min / s_max)^2, from the singular values ``lstsq``
    returns, is below ``RCOND_THRESHOLD`` (0 when n_j < d_z).
    """
    q, d = len(sizes), Z.shape[1]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    betas = np.empty((q, d))
    for j in range(q):
        y_j, Z_j = y[offsets[j] : offsets[j + 1]], Z[offsets[j] : offsets[j + 1]]
        betas[j], _, _, sv = np.linalg.lstsq(Z_j, y_j, rcond=None)
        rc = 0.0 if len(sv) < d or sv[0] == 0.0 else float(sv[-1] / sv[0]) ** 2
        if rc < RCOND_THRESHOLD:
            raise IdentificationFailure(j, rc)
    return betas


def study_scores_loop(spec, contrast, value: float, replications: int) -> np.ndarray:
    """The (q, replications) scores of a study: draw, fit and score each replication."""
    weights = np.sqrt(np.asarray(spec.sizes, dtype=np.int64).astype(np.float64))
    scores = np.empty((spec.q, replications))
    for r in range(replications):
        betas = fit_loop(*generate_loop(spec, r), spec.sizes)
        scores[:, r] = weights * (betas @ np.asarray(contrast, dtype=np.float64) - value)
    return scores


# ------------------------------------------------------------------ #
# The restricted-residual route to the scores
# ------------------------------------------------------------------ #


class SingularFullGram(ValueError):
    """The full-sample covariate second-moment matrix is singular."""


def fit_restricted(data, hypothesis) -> np.ndarray:
    """Full-sample least squares subject to contrast'beta = value, (d_z,).

    Computed in closed form by projecting the unrestricted solution:
    beta_r = beta - A^{-1} c (c'beta - value) / (c' A^{-1} c) with A the
    full-sample Gram matrix.  The step is scale-free in (c, value), so both
    are scaled exactly by the power of two that puts c' A^{-1} c, of units
    c^2 / A, near 1: neither it nor the step's factor overflows, and the
    result keeps its bits under a contrast and value times 2^k while both
    stay normal floats.  With one coefficient the constraint alone pins
    beta_r = value / c, where the projection would cancel.

    Raises :class:`SingularFullGram` when A is numerically singular, and
    ``ValueError`` when A overflows or underflows float64 or beta_r is not
    finite (a contrast of 5e-324 with value 1 asks for 2^1074).  That is a
    limit of this route, not of the test: on the suite's q = 6, d_z = 2
    instance (n = 183), the covariates times 2^-515 or less make A's
    diagonal subnormal and are refused, while the per-cluster route gives
    p = 0.625 at every scale.
    """
    Z, y = data.covariates, data.outcomes
    check_contrast_length(hypothesis.contrast, data.d_z)
    beta, _, _, sv = np.linalg.lstsq(Z, y, rcond=None)
    rc = gram_rcond(sv, data.d_z)
    if rc < RCOND_THRESHOLD:
        raise SingularFullGram(
            f"full-sample Gram matrix is numerically singular (rcond {rc:.3e})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        A = Z.T @ Z
    if not np.isfinite(A).all():
        raise ValueError("the full-sample Gram matrix overflows float64; "
                         "rescale the outcome or the covariates")
    if A.diagonal().min() < np.finfo(np.float64).tiny:
        raise ValueError("the full-sample Gram matrix underflows float64; rescale the covariates")
    e = (math.frexp(float(A.diagonal().max()))[1] // 2
         - math.frexp(float(np.abs(hypothesis.contrast).max()))[1])
    c = np.ldexp(hypothesis.contrast, e)
    u = np.linalg.solve(A, c)
    # a value that overflows once scaled overflows the step; the finiteness check refuses it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = float(np.ldexp(hypothesis.value, e))
        step = u * np.divide(float(c @ beta) - value, c @ u)
        beta_r = hypothesis.value / hypothesis.contrast if data.d_z == 1 else beta - step
        # the size of the terms summed in c'beta_r, which bounds its rounding
        terms = float(np.abs(c) @ (np.abs(beta) + np.abs(step)))
    if not np.all(np.isfinite(beta_r)):  # a NaN would pass the constraint check
        raise ValueError("restricted fit must be finite")
    achieved = float(c @ beta_r)
    scale = max(1.0, abs(value), terms)
    if abs(achieved - value) > 1e-10 * scale:
        raise SingularFullGram(
            "restricted solution failed to satisfy the constraint "
            f"(reached {achieved!r}, wanted {value!r}, both scaled by 2^{e})"
        )
    return beta_r


def scores_via_restricted(data, hypothesis) -> np.ndarray:
    """The scores, (q,), from the residuals of one full-sample fit under the null.

    With beta_r from :func:`fit_restricted` and residuals r = y - Z beta_r,
    cluster j's score is c' Gram_j^{-1} Z_j'r_j / sqrt(n_j), with Gram_j =
    (1/n_j) Z_j'Z_j from one ``matmul`` of its rows as a (1, n_j, d_z)
    stack.  In real arithmetic it equals the package's sqrt(n_j) *
    (c'beta_j - value) (``randtest.scores_from_estimates``); criterion 1
    checks that to a tolerance.  Refuses clusters as ``fit_per_cluster``
    does, and a cluster Gram matrix that underflows with ``ValueError``.
    """
    beta_r = fit_restricted(data, hypothesis)
    fit_per_cluster(data)
    residuals = data.outcomes - data.covariates @ beta_r
    out = np.empty(data.q, dtype=np.float64)
    for j in range(data.q):
        s = data.cluster_slice(j)
        Z_j = data.covariates[None, s]
        gram = (np.matmul(Z_j.transpose(0, 2, 1), Z_j) / Z_j.shape[1])[0]
        if gram.diagonal().min() < np.finfo(np.float64).tiny:
            raise ValueError(f"the Gram matrix of cluster {data.labels[j]!r} underflows float64; "
                             "rescale the covariates")
        v = Z_j[0].T @ residuals[s] / np.sqrt(Z_j.shape[1])
        out[j] = float(hypothesis.contrast @ np.linalg.solve(gram, v))
    return out


# ------------------------------------------------------------------ #
# Time blocks, through per-row labels and canonicalize
# ------------------------------------------------------------------ #


def blockify_via_canonicalize(time_keys, outcomes, covariates, q: int):
    """Label each row by its block (1..q), then canonicalize the time-sorted rows."""
    plan = plan_blocks(len(time_keys), q)
    labels = np.empty(plan.n, dtype=np.int64)
    for j, (start, stop) in enumerate(plan.boundaries):
        labels[start:stop] = j + 1
    order = np.argsort(np.asarray(time_keys), kind="stable")
    y = np.asarray(outcomes, dtype=np.float64)[order]
    Z = np.asarray(covariates, dtype=np.float64)[order]
    return canonicalize(labels, y, Z)


# ------------------------------------------------------------------ #
# Label coding
# ------------------------------------------------------------------ #


def canonicalize_loop(labels, outcomes, covariates) -> ClusteredDataset:
    """Number labels by first appearance row by row; stable-sort the int64 codes."""
    order = {}
    idx = np.array([order.setdefault(lab, len(order)) for lab in labels], dtype=np.int64)
    perm = np.argsort(idx, kind="stable")
    return ClusteredDataset(
        outcomes=np.asarray(outcomes, dtype=np.float64)[perm],
        covariates=np.asarray(covariates, dtype=np.float64)[perm],
        sizes=np.bincount(idx, minlength=len(order)),
        labels=tuple(order),
    )
