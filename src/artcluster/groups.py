"""Sign-flip group construction: exhaustive enumeration and seeded sampling.

A sign vector is a plain 1-D int8 array of +-1 entries; a
:class:`SignGroup` is an ordered collection of them with the identity
vector (all +1) always in row 0.  An exhaustive group is defined by q
alone and is swept without materializing its rows; a sampled group
stores its ``(draws, q)`` int8 matrix.  Sampling uses numpy's Philox
generator, a counter-based RNG whose streams are reproducible across
platforms for a given integer seed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from artcluster import kernels
from artcluster.errors import GroupTooLarge

__all__ = [
    "AUTO_SAMPLED_ABOVE",
    "DEFAULT_DRAWS",
    "MAX_EXHAUSTIVE_Q",
    "SignGroup",
    "enumerate_group",
    "exhaustive_group",
    "sampled_group",
]

# 2^20 vectors is the enumeration ceiling: an exhaustive sweep holds a
# few float64 arrays of 2^q entries (8 MB each at q = 20).  The
# automatic mode switches to sampling well before that.
MAX_EXHAUSTIVE_Q = 20
AUTO_SAMPLED_ABOVE = 14
DEFAULT_DRAWS = 1000

# A sampled group of B draws holds about B * (2q + 40) bytes at its
# peak: the int8 flips and sign matrix, and a few float64 (B,) arrays
# of the sweep.  Larger requests are refused before anything is drawn.
_MAX_SAMPLED_BYTES = 2**30


@dataclass(frozen=True)
class SignGroup:
    """An ordered collection of sign vectors acting on cluster statistics.

    Attributes
    ----------
    q : int
        Length of each sign vector (the number of clusters).
    mode : str
        ``"exhaustive"`` (all 2^q vectors, lexicographic with +1 first)
        or ``"sampled"`` (identity first, then seeded Rademacher draws;
        duplicates permitted).
    seed, draws
        Sampling provenance; ``None`` in exhaustive mode.
    matrix : (draws, q) int8 or None
        The rows of a sampled group; ``None`` in exhaustive mode, whose
        rows are implied by q.
    """

    q: int
    mode: str
    seed: int | None = None
    draws: int | None = None
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q", operator.index(self.q))
        if self.mode == "exhaustive":
            if self.matrix is not None or self.seed is not None or self.draws is not None:
                raise ValueError("an exhaustive group is defined by q alone")
            if self.q < 2:
                raise ValueError("need q >= 2")
            if self.q > MAX_EXHAUSTIVE_Q:
                raise GroupTooLarge(
                    f"exhaustive enumeration of 2^{self.q} sign vectors exceeds the "
                    f"q <= {MAX_EXHAUSTIVE_Q} ceiling; use sampled mode"
                )
        elif self.mode == "sampled":
            if self.matrix is None:
                raise ValueError("a sampled group needs its sign matrix")
            signs = np.asarray(self.matrix, dtype=np.int8)
            if signs.ndim != 2 or signs.shape[1] != self.q:
                raise ValueError("signs must be an (m, q) matrix")
            if not np.all(np.abs(signs) == 1):
                raise ValueError("sign entries must be +1 or -1")
            if not np.all(signs[0] == 1):
                raise ValueError("row 0 must be the identity vector")
            if self.draws is None or signs.shape[0] != self.draws:
                raise ValueError("sampled group must record its draw count")
            signs = np.ascontiguousarray(signs)
            signs.flags.writeable = False
            object.__setattr__(self, "matrix", signs)
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def size(self) -> int:
        return 1 << self.q if self.matrix is None else self.matrix.shape[0]

    def __len__(self) -> int:
        return self.size

    def sweep(self, values: np.ndarray) -> np.ndarray:
        """Signed means (1/q) sum_j g_j v_j for every row g, in row order.

        ``values`` is (q,) or (q, p); the result is (m,) or (m, p).
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape[0] != self.q:
            raise ValueError(
                f"values have {values.shape[0]} entries but the group acts on q = {self.q}"
            )
        if self.matrix is None:
            return kernels.exhaustive_means(values)
        return kernels.group_means(self.matrix, values)

    def pm_identity(self) -> np.ndarray:
        """Boolean mask of the rows equal to +-identity (all entries equal)."""
        if self.matrix is None:
            mask = np.zeros(self.size, dtype=bool)
            mask[[0, -1]] = True
            return mask
        return np.all(self.matrix == self.matrix[:, :1], axis=1)


def exhaustive_group(q: int) -> SignGroup:
    """All 2^q sign vectors in lexicographic order (+1 sorts before -1).

    Row 0 is the identity, row 2^q - 1 its negation.  Raises
    :class:`GroupTooLarge` above q = 20; use sampled mode there.
    """
    return SignGroup(q=q, mode="exhaustive")


def sampled_group(q: int, draws: int, seed: int) -> SignGroup:
    """Identity vector followed by ``draws - 1`` i.i.d. Rademacher vectors.

    Draws come from ``Philox(key=seed)`` as a flat stream of fair coin
    flips filling the (draws-1, q) block row by row, so a given (q,
    draws, seed) triple yields the same group on every platform.
    Raises ``ValueError`` when the group would need more than 1 GiB.
    """
    if q < 2:
        raise ValueError("need q >= 2")
    if draws < 2:
        raise ValueError("sampled mode needs at least 2 vectors")
    need = draws * (2 * q + 40)
    if need > _MAX_SAMPLED_BYTES:
        raise ValueError(
            f"--draws {draws} at q = {q} needs about {need / 2**30:.1f} GiB, "
            f"above the {_MAX_SAMPLED_BYTES / 2**30:.0f} GiB limit"
        )
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    flips = rng.integers(0, 2, size=(draws - 1, q), dtype=np.int8)
    signs = np.empty((draws, q), dtype=np.int8)
    signs[0] = 1
    signs[1:] = 1 - 2 * flips
    return SignGroup(q=q, mode="sampled", seed=int(seed), draws=int(draws), matrix=signs)


def enumerate_group(
    q: int,
    mode: str = "auto",
    draws: int = DEFAULT_DRAWS,
    seed: int = 0,
) -> SignGroup:
    """Build the sign group used by the test engine.

    ``mode="auto"`` enumerates exhaustively for q <= 14 and samples
    ``draws`` vectors otherwise.
    """
    if mode == "auto":
        mode = "exhaustive" if q <= AUTO_SAMPLED_ABOVE else "sampled"
    if mode == "exhaustive":
        return exhaustive_group(q)
    if mode == "sampled":
        return sampled_group(q, draws, seed)
    raise ValueError(f"unknown group mode {mode!r}")
