"""Sign-flip group construction: exhaustive enumeration and seeded sampling.

A sign vector is a plain 1-D int8 array of +-1 entries; a
:class:`SignGroup` is an ordered collection of them with the identity
vector (all +1) always in row 0.  A group holds only q, or (q, draws,
seed) when sampled: each sweep regenerates sampled rows, a chunk at a
time, from numpy's Philox generator, a counter-based RNG whose streams
are reproducible across platforms for a given integer seed.  A group
only sweeps: the +-identity rows are read off the swept weights.  An
exhaustive sweep returns only the rows with g_0 = +1; the others negate
them exactly and add nothing to a decision (see :mod:`artcluster.randtest`).
:meth:`SignGroup.sweep` gives signed means; :meth:`SignGroup.sweep_chunks`,
the engine's sweep, gives signed sums, which a decision never divides.
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

# Sampled rows are regenerated this many at a time.  A chunk's n flips are
# the top bits of the first n little-endian bytes of raw Philox words, as
# Generator.integers(0, 2, dtype=int8) draws them; a full chunk uses whole
# words, so the chunks continue the one-shot stream at every q.
_CHUNK_ROWS = 2**14


def check_score_sums(values: np.ndarray) -> np.ndarray:
    """Refuse (q,) or (q, k) values whose signed sums could overflow; return the sums of |v_j|.

    Every signed partial sum of a sweep is bounded by the sum of |v_j| in
    the same left-to-right order, because rounding is monotone, so a
    finite column sum of |values| means that no sweep overflows.  An
    exhaustive group's row g_j = sign(v_j) reaches that sum, so there the
    check refuses exactly the values whose sweep would overflow, and the
    returned sum, () or (k,), is the largest |signed sum| of the sweep.
    NaN and infinite values fail it too.  It costs O(q k) time and O(k) memory.
    """
    total = np.zeros(values.shape[1:])
    with np.errstate(over="ignore"):
        for row in values:  # row by row: no (q, k) temporary
            total += np.abs(row)
    if not np.isfinite(total).all():
        raise ValueError(
            "scores are not finite, or their absolute sum over the clusters "
            "overflows float64; rescale the outcome or the contrast"
        )
    return total


def check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**128), the range of Philox keys."""
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")


@dataclass(frozen=True)
class SignGroup:
    """An ordered collection of sign vectors acting on cluster statistics.

    ``SignGroup(q, "exhaustive")`` holds all 2^q vectors: row i has
    g_0 = -1 where bit q - 1 of i is set, and g_j = -1 for j >= 1 where
    bit j - 1 is set, the order in which prefix-sum doubling builds them.
    Row 0 is the identity, and row 2^q - 1 - i is row i negated.  Its sweep
    returns the first ``rows`` = 2^(q-1) of them, those with g_0 = +1; the
    rest are their negations in reverse order.  It raises
    :class:`GroupTooLarge` above q = 20.

    ``SignGroup(q, "sampled", seed=seed, draws=B)`` holds the identity
    followed by B - 1 i.i.d. Rademacher vectors (duplicates permitted),
    drawn from ``Philox(key=seed)`` as a flat stream of fair coin flips
    filling the (B - 1, q) block row by row, so a given (q, draws, seed)
    triple yields the same rows on every platform.  It raises
    ``ValueError``, naming ``draws_name``, when the group would need more
    than 1 GiB: B * 50 bytes, plus 2^14 * (3q + 48) for one chunk's bytes,
    flips and signs and three (2, 2^14) float64 temporaries.  A sampled
    ``ci`` holds 41 B per draw (a(g), b(g), the two bounds, one temporary
    of their crossings and the +-identity mask) over about 9 MB for numpy's
    random module and the command, so 50 B per draw covers its peak from
    about 1M draws up (50 MB over the import floor at 1M draws, at every
    q).  A sampled ``test`` holds 9 B per draw: the engine takes |means|
    in place, counts them through a one-byte mask, and then partitions
    them in place for the critical value.

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
    def rows(self) -> int:
        """Rows a sweep returns: the 2^(q-1) with g_0 = +1 if exhaustive, else ``draws``."""
        return self.size // 2 if self.mode == "exhaustive" else self.draws

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
        """Signed means (1/q) sum_j g_j v_j for each of the m = ``rows`` rows g, in order.

        ``values`` is (q,) or (q, p); the result is (m,) or (p, m): the
        group axis is last, so each value column gets one contiguous row
        of m means.  Values whose signed sums could overflow raise
        ``ValueError`` (:func:`check_score_sums`), so every mean is finite.
        An exhaustive sweep doubles each value column in place in its own row.
        """
        values = np.asarray(values, dtype=np.float64)
        block = values[:, None] if values.ndim == 1 else values
        self._checked(block)
        if self.mode == "sampled":
            means = self._sampled(block, kernels.group_means)
        else:
            means = np.empty((block.shape[1], self.rows))
            means[:, 0] = 0.0 + block[0]
            for sums, column in zip(means, block[1:].T):
                kernels.double_sums(sums, column)
            means /= self.q
        return means.reshape(*values.shape[1:], self.rows)

    def sweep_chunks(self, values: np.ndarray, statistics: int | None = None):
        """Sweep a (q, k) block of values in chunks of columns: each chunk's (w, m) signed sums.

        Returns the column sums of |values| from the overflow guard
        (:func:`check_score_sums`), which runs once, here, and an iterator
        over the chunks.  The chunks hold sums sum_j g_j v_j, not means:
        dividing by q cannot change their order, so a caller that only
        ranks them never divides.  A chunk holds w = max(1, ``statistics``
        // m) columns, the last one fewer, and a block of no columns is one
        empty chunk; without ``statistics`` the whole block is one chunk.
        An exhaustive sweep doubles all k columns, group axis first, while
        a level holds at most ``statistics`` sums; each chunk doubles its
        columns of those head rows on in one (m, w) buffer that every chunk
        reuses, and yields its (w, m) view, so read a chunk before asking
        for the next.  The sums have the bits of sweeping each column alone.
        """
        values = np.asarray(values, dtype=np.float64)
        return self._checked(values), self._chunks(values, statistics)

    def _chunks(self, values: np.ndarray, statistics: int | None):
        k = values.shape[1]
        budget = k * self.rows if statistics is None else statistics
        width = max(1, min(budget // self.rows, k))
        if self.mode == "exhaustive":
            # the head's level over the first ``lead`` rows holds k * 2^(lead-1) sums
            lead = min(self.q, max(1, (budget // max(k, 1)).bit_length()))
            head = np.empty((1 << (lead - 1), k))
            head[0] = 0.0 + values[0]
            kernels.double_sums(head, values[1:lead])
            buffer = np.empty(self.rows * width)
        for start in range(0, max(k, 1), width):
            columns = values[:, start : start + width]
            if self.mode == "sampled":
                yield self._sampled(columns, kernels.group_sums)
            else:
                w = columns.shape[1]
                sums = buffer[: self.rows * w].reshape(self.rows, w)
                sums[: len(head)] = head[:, start : start + width]
                kernels.double_sums(sums, columns[lead:], len(head))
                yield sums.T

    def _checked(self, values: np.ndarray) -> np.ndarray:
        """Column sums of |values| (:func:`check_score_sums`), for (q, k) values with q rows."""
        if values.shape[0] != self.q:
            raise ValueError(
                f"values have {values.shape[0]} entries but the group acts on q = {self.q}"
            )
        return check_score_sums(values)

    def _sampled(self, values: np.ndarray, kernel) -> np.ndarray:
        """The (p, draws) signed sums or means of (q, p) values, as ``kernel`` gives them.

        The rows are regenerated a chunk at a time.
        """
        out = np.empty((values.shape[1], self.draws))
        out[:, :1] = kernel(np.ones((1, self.q), dtype=np.int8), values)
        bits = np.random.Philox(key=self.seed)
        for start in range(1, self.draws, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, self.draws)
            n = (stop - start) * self.q
            flips = bits.random_raw(-(-n // 8)).astype("<u8", copy=False).view(np.uint8)[:n]
            flips = (flips >> 7).view(np.int8).reshape(stop - start, self.q)
            out[:, start:stop] = kernel(1 - 2 * flips, values)
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
