"""Pseudo-clusters for time series, and cluster merging.

Temporally dependent data has no natural clusters; under weak
dependence, consecutive blocks of observations can stand in for them.
The first q-1 blocks have floor(n/q) observations and the final block
absorbs the remainder.  ``merge_clusters`` is the coarsening remedy for
within-cluster identification failures.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from artcluster.errors import (
    DegenerateGrouping,
    DuplicateTimeKeyWarning,
    NonFiniteValue,
    TooFewObservations,
)
from artcluster.model import ClusteredDataset, _rows, canonicalize

__all__ = ["BlockPlan", "blockify", "merge_clusters", "plan_blocks"]


@dataclass(frozen=True)
class BlockPlan:
    """How n consecutive observations split into q blocks, read off the boundaries."""

    boundaries: tuple  # q (start, stop) half-open row ranges
    q: int = field(init=False)
    base_size: int = field(init=False)
    last_size: int = field(init=False)

    def __post_init__(self):
        sizes = [stop - start for start, stop in self.boundaries]
        if len(sizes) < 2 or len(set(sizes[:-1])) != 1 or sizes[-1] < sizes[0]:
            raise ValueError("need 2 or more blocks: equal leading blocks, the last no smaller")
        object.__setattr__(self, "q", len(sizes))
        object.__setattr__(self, "base_size", sizes[0])
        object.__setattr__(self, "last_size", sizes[-1])

    @property
    def n(self) -> int:
        return self.boundaries[-1][1]


def plan_blocks(n: int, q: int) -> BlockPlan:
    """Split n observations into q consecutive blocks.

    Blocks 1..q-1 have floor(n/q) observations; the last block holds the
    remaining n - floor(n/q)*(q-1).
    """
    if q < 2:
        raise ValueError("need q >= 2")
    if n < q:
        raise TooFewObservations(f"cannot form {q} blocks from {n} observations")
    base = n // q
    starts = [j * base for j in range(q)]
    stops = starts[1:] + [n]
    return BlockPlan(tuple(zip(starts, stops)))


def blockify(time_keys, outcomes, covariates, q: int) -> ClusteredDataset:
    """Sort rows by time key and label them by consecutive blocks 1..q.

    The sort is stable, so duplicate time keys keep their input order (a
    :class:`DuplicateTimeKeyWarning` is emitted), and a NaN or infinite key
    raises :class:`NonFiniteValue`.  The sorted rows are already in
    cluster order, and the sizes come from :func:`plan_blocks`.
    """
    keys = np.asarray(time_keys)
    if keys.ndim != 1:
        raise ValueError("time keys must be 1-D")
    plan = plan_blocks(keys.shape[0], q)
    y, Z = _rows(keys.shape[0], outcomes, covariates, "time keys")
    if keys.dtype.kind == "f" and not np.all(np.isfinite(keys)):
        raise NonFiniteValue("time keys contain non-finite values")
    if np.unique(keys).shape[0] != keys.shape[0]:
        warnings.warn(
            "duplicate time keys; stable input order breaks the ties",
            DuplicateTimeKeyWarning,
            stacklevel=2,
        )
    order = np.argsort(keys, kind="stable")
    return ClusteredDataset(
        outcomes=y[order],
        covariates=Z[order],
        sizes=[stop - start for start, stop in plan.boundaries],
        labels=range(1, q + 1),
    )


def merge_clusters(data: ClusteredDataset, grouping: dict) -> ClusteredDataset:
    """Relabel clusters according to ``grouping`` (old label -> new label).

    Row content and within-group row order are untouched; only labels
    change, and sizes of merged clusters add up.  The grouping must
    cover every existing label and leave at least two clusters.
    """
    missing = [lab for lab in data.labels if lab not in grouping]
    if missing:
        raise KeyError(f"grouping must cover every cluster label; missing {missing!r}")
    if len(set(grouping[lab] for lab in data.labels)) < 2:
        raise DegenerateGrouping("merging must leave at least 2 clusters")
    old_rows = data.row_labels()
    new_rows = [grouping[lab] for lab in old_rows]
    return canonicalize(new_rows, data.outcomes, data.covariates)
