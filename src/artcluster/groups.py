"""Sign-flip group construction: exhaustive enumeration and seeded sampling.

A sign vector is a plain 1-D int8 array of +-1 entries; a
:class:`SignGroup` stacks the whole collection into an ``(m, q)`` int8
matrix with the identity vector (all +1) always in row 0.  Sampling uses
numpy's Philox generator, a counter-based RNG whose streams are
reproducible across platforms for a given integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from artcluster.errors import GroupTooLarge

__all__ = [
    "AUTO_SAMPLED_ABOVE",
    "DEFAULT_DRAWS",
    "MAX_EXHAUSTIVE_Q",
    "SignGroup",
    "as_sign_vector",
    "enumerate_group",
    "exhaustive_group",
    "sampled_group",
]

# 2^20 vectors (~21 MB of int8 signs) is the enumeration ceiling; the
# automatic mode switches to sampling well before that.
MAX_EXHAUSTIVE_Q = 20
AUTO_SAMPLED_ABOVE = 14
DEFAULT_DRAWS = 1000


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


@dataclass(frozen=True)
class SignGroup:
    """An ordered collection of sign vectors acting on cluster statistics.

    Attributes
    ----------
    signs : (m, q) int8
        One sign vector per row; row 0 is always the identity.
    mode : str
        ``"exhaustive"`` (all 2^q vectors, lexicographic with +1 first)
        or ``"sampled"`` (identity first, then seeded Rademacher draws;
        duplicates permitted).
    seed, draws
        Sampling provenance; ``None`` in exhaustive mode.
    """

    signs: np.ndarray
    mode: str
    seed: int | None = None
    draws: int | None = None

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=np.int8)
        if signs.ndim != 2:
            raise ValueError("signs must be an (m, q) matrix")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("sign entries must be +1 or -1")
        if not np.all(signs[0] == 1):
            raise ValueError("row 0 must be the identity vector")
        if self.mode == "exhaustive":
            if signs.shape[0] != 1 << signs.shape[1]:
                raise ValueError("exhaustive group must contain exactly 2^q vectors")
        elif self.mode == "sampled":
            if self.draws is None or signs.shape[0] != self.draws:
                raise ValueError("sampled group must record its draw count")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        signs = np.ascontiguousarray(signs)
        signs.flags.writeable = False
        object.__setattr__(self, "signs", signs)

    @property
    def size(self) -> int:
        return self.signs.shape[0]

    @property
    def q(self) -> int:
        return self.signs.shape[1]

    def __len__(self) -> int:
        return self.size


def exhaustive_group(q: int) -> SignGroup:
    """All 2^q sign vectors in lexicographic order (+1 sorts before -1).

    Row 0 is the identity, row 2^q - 1 its negation.  Raises
    :class:`GroupTooLarge` above q = 20; use sampled mode there.
    """
    if q < 2:
        raise ValueError("need q >= 2")
    if q > MAX_EXHAUSTIVE_Q:
        raise GroupTooLarge(
            f"exhaustive enumeration of 2^{q} sign vectors exceeds the "
            f"q <= {MAX_EXHAUSTIVE_Q} ceiling; use sampled mode"
        )
    idx = np.arange(1 << q, dtype=np.uint64)
    shifts = (q - 1 - np.arange(q, dtype=np.uint64))
    bits = (idx[:, None] >> shifts[None, :]) & 1
    signs = (1 - 2 * bits).astype(np.int8)
    return SignGroup(signs=signs, mode="exhaustive")


def sampled_group(q: int, draws: int, seed: int) -> SignGroup:
    """Identity vector followed by ``draws - 1`` i.i.d. Rademacher vectors.

    Draws come from ``Philox(key=seed)`` as a flat stream of fair coin
    flips filling the (draws-1, q) block row by row, so a given (q,
    draws, seed) triple yields the same group on every platform.
    """
    if q < 2:
        raise ValueError("need q >= 2")
    if draws < 2:
        raise ValueError("sampled mode needs at least 2 vectors")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    flips = rng.integers(0, 2, size=(draws - 1, q), dtype=np.int8)
    signs = np.empty((draws, q), dtype=np.int8)
    signs[0] = 1
    signs[1:] = 1 - 2 * flips
    return SignGroup(signs=signs, mode="sampled", seed=int(seed), draws=int(draws))


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
