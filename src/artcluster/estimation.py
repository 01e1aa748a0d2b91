"""The regression layer: per-cluster and restricted least squares.

Solvers go through numpy's orthogonal-decomposition routines (``lstsq``,
``solve``); explicit matrix inversion appears only in test oracles.
"""

from __future__ import annotations

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
    "reciprocal_condition",
]

# Below this reciprocal condition number a second-moment matrix is
# treated as singular (the full-rank requirement needs a numeric proxy).
RCOND_THRESHOLD = 1e-10


def reciprocal_condition(matrix: np.ndarray):
    """sigma_min / sigma_max of ``matrix`` (0.0 for the zero matrix).

    A (..., d, d) stack gives one value per matrix from a single ``svd``
    call; a single (d, d) matrix gives a float.
    """
    sv = np.linalg.svd(matrix, compute_uv=False)
    top = sv[..., 0]
    rc = np.divide(sv[..., -1], top, out=np.zeros_like(top), where=top != 0.0)
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


def lstsq_stack(Z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares of every (n, d) system in a stack: (..., n, d), (..., n) -> (..., d).

    One call to the gufunc behind ``np.linalg.lstsq``, with the same
    default ``rcond`` and the same error handling, so each solution has
    the bits ``np.linalg.lstsq(Z[r], y[r], rcond=None)[0]`` would give
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
        x = _umath_linalg.lstsq(Z, y[..., None], rcond, signature="ddd->ddid")[0]
    return x[..., 0]


def _identified_grams(covariates: np.ndarray, offsets: np.ndarray, labels) -> np.ndarray:
    """Each cluster's (1/n_j) * Z_j' Z_j, (R, q, d_z, d_z), after the identification check.

    ``covariates`` is (R, n, d_z) with cluster j in rows ``offsets[j]:offsets[j + 1]``.
    Per cluster, one ``matmul`` forms the matrices of all R datasets; one
    ``svd`` call gives the conditioning of all R * q of them.

    Raises
    ------
    IdentificationFailure
        When a matrix is singular below ``RCOND_THRESHOLD`` -- e.g. a
        covariate constant within the cluster, or n_j < d_z.  It names the
        cluster and its reciprocal condition number, for the first failure
        in (dataset, cluster) order, so checking the datasets one at a time
        would raise the same one.
    """
    reps, q, d = covariates.shape[0], len(labels), covariates.shape[2]
    grams = np.empty((reps, q, d, d), dtype=np.float64)
    for j in range(q):
        Z_j = covariates[:, offsets[j] : offsets[j + 1]]
        grams[:, j] = np.matmul(Z_j.transpose(0, 2, 1), Z_j) / Z_j.shape[1]
    rcond = reciprocal_condition(grams)
    singular = ~np.isfinite(rcond) | (rcond < RCOND_THRESHOLD)
    if singular.any():
        r, j = divmod(int(np.argmax(singular)), q)
        raise IdentificationFailure(labels[j], rcond[r, j])
    return grams


def fit_clusters(
    outcomes: np.ndarray, covariates: np.ndarray, offsets: np.ndarray, labels
) -> np.ndarray:
    """Least squares inside every cluster of R datasets with shared clusters, (R, q, d_z).

    ``outcomes`` is (R, n) and ``covariates`` (R, n, d_z); cluster j holds
    rows ``offsets[j]:offsets[j + 1]`` of every dataset.  The identification
    check (:func:`_identified_grams`, whose ``IdentificationFailure`` it
    raises) runs before any fit; per cluster, one stacked least-squares call
    (:func:`lstsq_stack`) fits all R datasets.
    """
    _identified_grams(covariates, offsets, labels)
    betas = np.empty((outcomes.shape[0], len(labels), covariates.shape[2]), dtype=np.float64)
    for j in range(len(labels)):
        rows = slice(offsets[j], offsets[j + 1])
        betas[:, j] = lstsq_stack(covariates[:, rows], outcomes[:, rows])
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
    full-sample Gram matrix.

    Raises
    ------
    SingularFullGram
        When the full-sample Gram matrix is numerically singular.
    ValueError
        When the solution is not finite (c' A^{-1} c is denormal or 0).
    """
    Z, y = data.covariates, data.outcomes
    c = hypothesis.contrast
    check_contrast_length(c, data.d_z)
    A = Z.T @ Z
    rc = reciprocal_condition(A)
    if not np.isfinite(rc) or rc < RCOND_THRESHOLD:
        raise SingularFullGram(
            f"full-sample Gram matrix is numerically singular (rcond {rc:.3e})"
        )
    beta, _, _, _ = np.linalg.lstsq(Z, y, rcond=None)
    u = np.linalg.solve(A, c)
    gap = float(c @ beta) - hypothesis.value
    # a denormal or zero c'u overflows the step; the finiteness check refuses it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        beta_r = beta - u * np.divide(gap, c @ u)
    if not np.all(np.isfinite(beta_r)):  # a NaN would pass the constraint check
        raise ValueError("restricted fit must be finite")
    achieved = float(c @ beta_r)
    scale = max(1.0, abs(hypothesis.value))
    if abs(achieved - hypothesis.value) > 1e-10 * scale:
        raise SingularFullGram(
            "restricted solution failed to satisfy the constraint "
            f"(reached {achieved!r}, wanted {hypothesis.value!r})"
        )
    return beta_r
