"""Sign-flip group construction: exhaustive enumeration and seeded sampling.

A sign vector is a plain 1-D int8 array of +-1 entries; a
:class:`SignGroup` is an ordered collection of them with the identity
vector (all +1) always in row 0.  A group holds only q, or (q, draws,
seed) when sampled: each sweep regenerates sampled rows, a chunk at a
time, from numpy's Philox generator, a counter-based RNG whose streams
are reproducible across platforms for a given integer seed.  A group
only sweeps: the +-identity rows are read off the swept weights.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass

import numpy as np

from artcluster import kernels
from artcluster.errors import GroupTooLarge, check_bytes

__all__ = [
    "AUTO_SAMPLED_ABOVE",
    "DEFAULT_DRAWS",
    "MAX_EXHAUSTIVE_Q",
    "SignGroup",
    "enumerate_group",
]

# 2^20 vectors is the enumeration ceiling: an exhaustive sweep holds a
# few float64 arrays of 2^q entries (8 MB each at q = 20).  The
# automatic mode switches to sampling well before that.
MAX_EXHAUSTIVE_Q = 20
AUTO_SAMPLED_ABOVE = 14
DEFAULT_DRAWS = 1000

# Sampled rows are regenerated this many at a time.  numpy draws bounded
# int8 values from 32-bit words and drops a call's unused trailing bytes,
# so only a multiple of 4 rows continues the one-shot stream at every q.
_CHUNK_ROWS = 2**14


def check_score_sums(values: np.ndarray) -> None:
    """Refuse (q,) or (q, k) values whose signed means could overflow.

    Every signed partial sum of a sweep is bounded by the sum of |v_j| in
    the same left-to-right order, because rounding is monotone, so a
    finite column sum of |values| means that no sweep overflows.  An
    exhaustive group's row g_j = sign(v_j) reaches that sum, so there the
    check refuses exactly the values whose sweep would overflow.  NaN and
    infinite values fail it too.  It costs O(q k).
    """
    with np.errstate(over="ignore"):
        total = np.add.accumulate(np.abs(values), axis=0)[-1]
    if not np.isfinite(total).all():
        raise ValueError(
            "scores are not finite, or their absolute sum over the clusters "
            "overflows float64; rescale the outcome or the contrast"
        )


def check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**128), the range of Philox keys."""
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")


@dataclass(frozen=True)
class SignGroup:
    """An ordered collection of sign vectors acting on cluster statistics.

    ``SignGroup(q, "exhaustive")`` holds all 2^q vectors in lexicographic
    order (+1 sorts before -1): row 0 is the identity, row 2^q - 1 its
    negation.  It raises :class:`GroupTooLarge` above q = 20.

    ``SignGroup(q, "sampled", seed=seed, draws=B)`` holds the identity
    followed by B - 1 i.i.d. Rademacher vectors (duplicates permitted),
    drawn from ``Philox(key=seed)`` as a flat stream of fair coin flips
    filling the (B - 1, q) block row by row, so a given (q, draws, seed)
    triple yields the same rows on every platform.  It raises
    ``ValueError``, naming ``draws_name``, when the group would need more
    than 1 GiB: B * 50 bytes, plus 2^14 * (3q + 48) for one chunk's int8
    flips and signs and three (2, 2^14) float64 temporaries.  A sampled
    ``ci`` holds 41 B per draw (a(g), b(g), the two bounds, the quantile's
    copy and the +-identity mask) over about 9 MB for numpy's random module
    and the command, so 50 B per draw covers its peak from about 1M draws
    up (50 MB over the import floor at 1M draws, at every q).

    Attributes
    ----------
    q : int
        Length of each sign vector (the number of clusters).
    mode : str
        ``"exhaustive"`` or ``"sampled"``.
    seed, draws
        Define the sampled rows; ``None`` in exhaustive mode.
    """

    q: int
    mode: str
    seed: int | None = None
    draws: int | None = None
    draws_name: InitVar[str] = "--draws"

    def __post_init__(self, draws_name):
        object.__setattr__(self, "q", operator.index(self.q))
        if self.mode == "exhaustive":
            if self.seed is not None or self.draws is not None:
                raise ValueError("an exhaustive group is defined by q alone")
            if self.q < 2:
                raise ValueError("need q >= 2")
            if self.q > MAX_EXHAUSTIVE_Q:
                raise GroupTooLarge(
                    f"exhaustive enumeration of 2^{self.q} sign vectors exceeds the "
                    f"q <= {MAX_EXHAUSTIVE_Q} ceiling; use sampled mode"
                )
        elif self.mode == "sampled":
            object.__setattr__(self, "draws", operator.index(self.draws))
            object.__setattr__(self, "seed", operator.index(self.seed))
            if self.q < 2:
                raise ValueError("need q >= 2")
            if self.draws < 2:
                raise ValueError("sampled mode needs at least 2 vectors")
            check_bytes(
                f"{draws_name} {self.draws} at q = {self.q}",
                self.draws * 50 + _CHUNK_ROWS * (3 * self.q + 48),
            )
            check_seed(self.seed)
        else:
            raise ValueError(f"unknown group mode {self.mode!r}")

    @property
    def size(self) -> int:
        return 1 << self.q if self.mode == "exhaustive" else self.draws

    @property
    def forced_ties(self) -> int:
        """Rows whose statistic ties the observed one by construction.

        The identity and its negation in an exhaustive group, row 0 alone
        in a sampled one, so ``forced_ties / size`` is the smallest
        attainable p-value (a lower bound when sampled: drawn +-identity
        rows tie too).
        """
        return 2 if self.mode == "exhaustive" else 1

    def describe(self) -> dict:
        """The group as a report echoes it."""
        return {"mode": self.mode, "size": self.size, "draws": self.draws, "seed": self.seed}

    def sweep(self, values: np.ndarray) -> np.ndarray:
        """Signed means (1/q) sum_j g_j v_j for every row g, in row order.

        ``values`` is (q,) or (q, p); the result is (m,) or (p, m): the
        group axis is last, so each value column gets one contiguous row
        of m means.  Values whose signed means could overflow raise
        ``ValueError`` (:func:`check_score_sums`), so every mean is finite.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape[0] != self.q:
            raise ValueError(
                f"values have {values.shape[0]} entries but the group acts on q = {self.q}"
            )
        check_score_sums(values)
        if self.mode == "exhaustive":
            return kernels.exhaustive_means(values)
        out = np.empty((*values.shape[1:], self.draws))
        out[..., :1] = kernels.group_means(np.ones((1, self.q), dtype=np.int8), values)
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        for start in range(1, self.draws, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, self.draws)
            flips = rng.integers(0, 2, size=(stop - start, self.q), dtype=np.int8)
            out[..., start:stop] = kernels.group_means(1 - 2 * flips, values)
        return out


def enumerate_group(
    q: int,
    mode: str = "auto",
    draws: int = DEFAULT_DRAWS,
    seed: int = 0,
    draws_name: str = "--draws",
) -> SignGroup:
    """Build the sign group used by the test engine.

    ``mode="auto"`` enumerates exhaustively for q <= 14 and samples
    ``draws`` vectors otherwise; ``draws_name`` is what a refused draw
    count is called in the error.
    """
    if mode == "auto":
        mode = "exhaustive" if q <= AUTO_SAMPLED_ABOVE else "sampled"
    if mode == "sampled":
        return SignGroup(q, mode, seed=seed, draws=draws, draws_name=draws_name)
    return SignGroup(q, mode)
