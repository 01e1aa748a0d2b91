"""The regression layer: least squares inside each cluster.

One stacked ``lstsq`` call fits a cluster in every dataset, and the
identification check reads the singular values it returns (:func:`gram_rcond`);
explicit matrix inversion appears only in test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from artcluster.errors import IdentificationFailure
from artcluster.model import ClusteredDataset, _frozen

__all__ = [
    "RCOND_THRESHOLD",
    "ClusterEstimates",
    "fit_clusters",
    "fit_per_cluster",
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

