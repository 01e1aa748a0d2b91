"""The regression layer: per-cluster and restricted least squares.

Solvers go through numpy's decomposition routines (``lstsq``, ``solve``); the
identification checks read the singular values ``lstsq`` returns (:func:`gram_rcond`),
and explicit matrix inversion appears only in test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from artcluster.errors import IdentificationFailure, SingularFullGram
from artcluster.model import ClusteredDataset, LinearHypothesis, _frozen, check_contrast_length

__all__ = [
    "RCOND_THRESHOLD",
    "ClusterEstimates",
    "fit_clusters",
    "fit_per_cluster",
    "fit_restricted",
    "gram_rcond",
]

# Below this reciprocal condition number a second-moment matrix is
# treated as singular (the full-rank requirement needs a numeric proxy).
RCOND_THRESHOLD = 1e-10


def gram_rcond(sv: np.ndarray, columns: int):
    """The reciprocal condition number of M'M from the singular values (..., k) of M.

    That is (s_min / s_max)^2, or 0.0 when M has fewer singular values
    than ``columns`` or is zero.  A stack gives one value per matrix; a
    single (k,) vector gives a float.
    """
    top = sv[..., 0]
    full = (top != 0.0) & (sv.shape[-1] >= columns)
    ratio = np.divide(sv[..., -1], top, out=np.zeros_like(top), where=full)
    rc = ratio * ratio
    return float(rc) if rc.ndim == 0 else rc


@dataclass(frozen=True)
class ClusterEstimates:
    """Per-cluster coefficient vectors, sizes and labels."""

    betas: np.ndarray  # (q, d_z)
    sizes: np.ndarray  # (q,)
    labels: tuple

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        sizes = np.asarray(self.sizes, dtype=np.int64)
        if betas.ndim != 2:
            raise ValueError("betas must be (q, d_z)")
        if not betas.shape[0] == sizes.shape[0] == len(self.labels):
            raise ValueError("per-cluster arrays must align")
        if not np.all(np.isfinite(betas)):
            raise ValueError("cluster coefficient estimates must be finite")
        object.__setattr__(self, "betas", _frozen(betas))
        object.__setattr__(self, "sizes", _frozen(sizes))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def q(self) -> int:
        return self.betas.shape[0]

    @property
    def d_z(self) -> int:
        return self.betas.shape[1]

    @property
    def n(self) -> int:
        return int(self.sizes.sum())


def _raise_svd_failure(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def lstsq_stack(Z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of every (n, d) system in a stack: solutions (..., d), singular values.

    ``Z`` is (..., n, d) and ``y`` (..., n); the singular values of each
    system are (..., min(n, d)).  One call to the gufunc behind
    ``np.linalg.lstsq``, with the same default ``rcond`` and the same
    error handling, so each result has the bits of
    ``np.linalg.lstsq(Z[r], y[r], rcond=None)``'s ``[0]`` and ``[3]``
    without the wrapper's per-call Python overhead.

    Raises
    ------
    numpy.linalg.LinAlgError
        When the SVD of a system does not converge (e.g. a NaN entry).
    """
    n, d = Z.shape[-2:]
    rcond = np.finfo(np.float64).eps * max(n, d)
    with np.errstate(
        call=_raise_svd_failure, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        x, _, _, sv = _umath_linalg.lstsq(Z, y[..., None], rcond, signature="ddd->ddid")
    return x[..., 0], sv


def fit_clusters(
    outcomes: np.ndarray, covariates: np.ndarray, offsets: np.ndarray, labels
) -> np.ndarray:
    """Least squares inside every cluster of R datasets with shared clusters, (R, q, d_z).

    ``outcomes`` is (R, n) and ``covariates`` (R, n, d_z); cluster j holds
    rows ``offsets[j]:offsets[j + 1]`` of every dataset, and one
    :func:`lstsq_stack` call fits it in all R.  Raises ``IdentificationFailure``
    for the first (dataset, cluster) whose :func:`gram_rcond` is below
    ``RCOND_THRESHOLD``, e.g. with a covariate constant in the cluster or n_j < d_z.
    """
    reps, q, d = outcomes.shape[0], len(labels), covariates.shape[2]
    betas = np.empty((reps, q, d), dtype=np.float64)
    rcond = np.empty((reps, q), dtype=np.float64)
    for j in range(q):
        rows = slice(offsets[j], offsets[j + 1])
        betas[:, j], sv = lstsq_stack(covariates[:, rows], outcomes[:, rows])
        rcond[:, j] = gram_rcond(sv, d)
    singular = rcond < RCOND_THRESHOLD
    if singular.any():
        r, j = divmod(int(np.argmax(singular)), q)
        raise IdentificationFailure(labels[j], rcond[r, j])
    return betas


def fit_per_cluster(data: ClusteredDataset) -> ClusterEstimates:
    """Run one least squares regression inside every cluster.

    The one-dataset case of :func:`fit_clusters`, whose
    ``IdentificationFailure`` it raises.
    """
    betas = fit_clusters(data.outcomes[None], data.covariates[None], data.offsets, data.labels)
    return ClusterEstimates(betas=betas[0], sizes=data.sizes, labels=data.labels)


def fit_restricted(data: ClusteredDataset, hypothesis: LinearHypothesis) -> np.ndarray:
    """Full-sample least squares subject to contrast'beta = value, (d_z,).

    Computed in closed form by projecting the unrestricted solution:
    beta_r = beta - A^{-1} c (c'beta - value) / (c' A^{-1} c) with A the
    full-sample Gram matrix.  The step is scale-free in (c, value), so both
    are scaled exactly by the power of two that puts c' A^{-1} c, of units
    c^2 / A, near 1: neither it nor the step's factor overflows.

    Raises
    ------
    SingularFullGram
        When the full-sample Gram matrix is numerically singular.
    ValueError
        When A overflows or underflows, or beta_r is not finite.
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
        beta_r = beta - step
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
