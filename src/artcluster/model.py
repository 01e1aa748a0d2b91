"""Core domain types: clustered datasets and linear hypotheses.

Everything here is immutable after construction (frozen dataclasses over
read-only arrays), so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from artcluster.errors import (
    EmptyCluster,
    NonFiniteValue,
    TooFewClusters,
    WidthMismatch,
)

__all__ = [
    "ClusteredDataset",
    "LinearHypothesis",
    "MultiHypothesis",
    "canonicalize",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    """Return a C-contiguous copy with the writeable flag cleared."""
    out = np.array(a, copy=True, order="C")
    out.flags.writeable = False
    return out


# ------------------------------------------------------------------ #
# Clustered dataset
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class ClusteredDataset:
    """Outcomes, covariate rows and cluster sizes in canonical order.

    Rows belonging to the same cluster are contiguous; clusters are
    ordered by first appearance of their label in the source rows.
    Construct via :func:`canonicalize` or :func:`~artcluster.blocks.blockify`
    rather than directly.

    Attributes
    ----------
    outcomes : (n,) float64
    covariates : (n, d_z) float64
    sizes : (q,) int64
        Observations per cluster, in canonical cluster order.
    labels : tuple
        Original cluster labels; position in the tuple is the canonical
        cluster index.
    offsets : (q + 1,) int64
        Row offset of each cluster's first observation, plus the end;
        derived from ``sizes`` at construction.
    """

    outcomes: np.ndarray
    covariates: np.ndarray
    sizes: np.ndarray
    labels: tuple
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "outcomes", _frozen(np.asarray(self.outcomes, dtype=np.float64)))
        object.__setattr__(self, "covariates", _frozen(np.asarray(self.covariates, dtype=np.float64)))
        object.__setattr__(self, "sizes", _frozen(np.asarray(self.sizes, dtype=np.int64)))
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.covariates.ndim != 2 or self.covariates.shape[1] < 1:
            raise WidthMismatch("covariates must be a 2-D array with at least one column")
        if self.outcomes.ndim != 1 or self.outcomes.shape[0] != self.covariates.shape[0]:
            raise WidthMismatch("outcomes and covariate rows must align")
        if len(self.labels) != self.sizes.shape[0]:
            raise ValueError("labels and sizes must have one entry per cluster")
        if len(self.labels) < 2:
            raise TooFewClusters("need at least 2 clusters")
        if np.any(self.sizes < 1):
            raise EmptyCluster("every cluster needs at least one observation")
        if int(self.sizes.sum()) != self.outcomes.shape[0]:
            raise ValueError("cluster sizes must sum to the number of rows")
        if not np.all(np.isfinite(self.outcomes)):
            raise NonFiniteValue("outcomes contain non-finite values")
        if not np.all(np.isfinite(self.covariates)):
            raise NonFiniteValue("covariates contain non-finite values")
        object.__setattr__(self, "offsets", _frozen(np.concatenate([[0], np.cumsum(self.sizes)])))

    # -- shape helpers -------------------------------------------------

    @property
    def n(self) -> int:
        return self.outcomes.shape[0]

    @property
    def q(self) -> int:
        return len(self.labels)

    @property
    def d_z(self) -> int:
        return self.covariates.shape[1]

    def cluster_slice(self, j: int) -> slice:
        off = self.offsets
        return slice(int(off[j]), int(off[j + 1]))

    def row_labels(self) -> np.ndarray:
        """Per-row original labels, in canonical row order."""
        return np.repeat(np.array(self.labels, dtype=object), self.sizes)


def _rows(n: int, outcomes, covariates, keys: str) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes (n,) and covariate rows (n, d_z) as float64 arrays.

    1-D covariates become one column; ``keys`` names the per-row keys
    whose count ``n`` the rows must match.
    """
    y = np.asarray(outcomes, dtype=np.float64)
    try:
        Z = np.asarray(covariates, dtype=np.float64)
    except ValueError as exc:
        raise WidthMismatch("covariate rows have inconsistent widths") from exc
    if Z.ndim == 1:
        Z = Z.reshape(-1, 1)
    if Z.ndim != 2:
        raise WidthMismatch("covariates must be rows of equal width")
    if not (n == y.shape[0] == Z.shape[0]):
        raise WidthMismatch(f"{keys}, outcomes and covariates must have equal length")
    return y, Z


def canonicalize(
    labels: Sequence[Hashable],
    outcomes: Sequence[float],
    covariates,
) -> ClusteredDataset:
    """Build a :class:`ClusteredDataset` from labeled observation rows.

    Rows are stable-sorted so that all rows sharing a label become
    contiguous, with clusters ordered by first appearance of their label.
    Canonicalizing an already-canonical dataset is a no-op (idempotence).
    An ndarray of labels is read with ``tolist()``, so ``labels`` holds
    plain Python values rather than numpy scalars.

    Raises
    ------
    WidthMismatch
        Ragged covariate rows, or misaligned lengths.
    TooFewClusters
        Fewer than two distinct labels.
    NonFiniteValue
        Any NaN/inf among outcomes or covariates.
    """
    labels = labels.tolist() if isinstance(labels, np.ndarray) else list(labels)
    y, Z = _rows(len(labels), outcomes, covariates, "labels")
    order = {lab: j for j, lab in enumerate(dict.fromkeys(labels))}  # first appearance
    if len(order) < 2:
        raise TooFewClusters(f"need at least 2 clusters, found {len(order)}")
    idx = np.fromiter(map(order.__getitem__, labels), dtype=np.int64, count=len(labels))
    # The stable permutation is unique; numpy radix-sorts the narrow codes.
    perm = np.argsort(idx.astype(np.min_scalar_type(len(order))), kind="stable")
    sizes = np.bincount(idx, minlength=len(order))
    return ClusteredDataset(
        outcomes=y[perm],
        covariates=Z[perm],
        sizes=sizes,
        labels=tuple(order.keys()),
    )


# ------------------------------------------------------------------ #
# Hypotheses
# ------------------------------------------------------------------ #


def check_contrast_length(contrast: np.ndarray, d_z: int) -> None:
    """Refuse a contrast whose length is not the covariate count ``d_z``."""
    if contrast.shape[0] != d_z:
        raise ValueError("contrast length must equal the covariate count")


@dataclass(frozen=True)
class LinearHypothesis:
    """A scalar restriction: contrast'beta = value."""

    contrast: np.ndarray
    value: float

    def __post_init__(self):
        c = np.asarray(self.contrast, dtype=np.float64).reshape(-1)
        if c.size < 1 or not np.all(np.isfinite(c)):
            raise ValueError("contrast must be a finite vector")
        if not np.any(c != 0.0):
            raise ValueError("contrast must not be the zero vector")
        if not math.isfinite(self.value):
            raise ValueError("hypothesized value must be finite")
        object.__setattr__(self, "contrast", _frozen(c))
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class MultiHypothesis:
    """A multi-row restriction: restriction @ beta = values."""

    restriction: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.restriction, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if R.ndim != 2 or R.shape[0] != v.shape[0]:
            raise ValueError("restriction rows must match the number of values")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(v))):
            raise ValueError("restriction and values must be finite")
        p, d = R.shape
        # each row scaled by a power of two (exact), so a row's units cannot move the rank
        e = np.frexp(np.abs(R).max(axis=1, initial=0.0, keepdims=True))[1]
        if p > d or np.linalg.matrix_rank(np.ldexp(R, -e)) < p:
            raise ValueError("restriction must have full row rank with p <= d_z")
        object.__setattr__(self, "restriction", _frozen(R))
        object.__setattr__(self, "values", _frozen(v))

    @property
    def p(self) -> int:
        return self.restriction.shape[0]
