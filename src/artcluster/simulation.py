"""Monte Carlo harness: size and power of the randomization test.

Data are drawn from a clustered linear model with heterogeneous noise
scales and tunable within-cluster correlation.  Replication r of a study
uses the Philox stream ``Philox(key=seed).jumped(r + 1)``, so every
replication is reproducible in isolation, results do not depend on
execution order, and no replication shares the base stream that
sign-group sampling draws from.  Studies draw and fit the replications
in chunks of stacked arrays; the chunking does not change any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from artcluster.errors import NonFiniteValue
from artcluster.estimation import fit_clusters
from artcluster.groups import SignGroup, check_seed, enumerate_group
from artcluster.model import ClusteredDataset, LinearHypothesis, _frozen
from artcluster.randtest import _cluster_terms, run_test_columns

__all__ = ["DgpSpec", "MonteCarloReport", "generate", "power_study", "size_study"]

COVARIATE_LAWS = ("normal", "lognormal")


@dataclass(frozen=True)
class DgpSpec:
    """A clustered linear data-generating process.

    Covariates are an intercept column followed by ``d_z - 1`` columns of
    i.i.d. draws from ``covariate_law`` ("normal" or "lognormal", the
    latter to stress conditioning).  Noise for observation i in cluster j
    is ``sigma[j] * (sqrt(rho) * f_j + sqrt(1 - rho) * e_ij)`` with
    standard normal cluster factor f_j and idiosyncratic e_ij, giving
    within-cluster correlation ``rho`` and cluster scale ``sigma[j]``.
    """

    sizes: tuple
    beta: tuple
    sigma: tuple
    rho: float = 0.0
    covariate_law: str = "normal"
    seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        beta = tuple(float(x) for x in self.beta)
        sigma = tuple(float(x) for x in self.sigma)
        if len(sizes) < 2:
            raise ValueError("need at least 2 clusters")
        if len(sigma) != len(sizes):
            raise ValueError("need one noise scale per cluster")
        if min(sizes) < len(beta) + 1:
            raise ValueError("every cluster needs at least d_z + 1 observations")
        if any(s <= 0.0 or not math.isfinite(s) for s in sigma):
            raise ValueError("noise scales must be positive and finite")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("within-cluster correlation must lie in [0, 1)")
        if self.covariate_law not in COVARIATE_LAWS:
            raise ValueError(f"covariate_law must be one of {COVARIATE_LAWS}")
        check_seed(int(self.seed))
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def q(self) -> int:
        return len(self.sizes)

    @property
    def d_z(self) -> int:
        return len(self.beta)

    @property
    def n(self) -> int:
        return sum(self.sizes)


def _draw(spec: DgpSpec, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes (R, n) and covariates (R, n, d_z) of replications start..stop-1.

    Replication r draws its covariates, cluster factors and noise, in
    that order, from ``Philox(key=spec.seed).jumped(r + 1)``; the
    arithmetic after the draws runs on the whole stack at once.
    """
    reps, n, d = stop - start, spec.n, spec.d_z
    draws = np.empty((reps, n, d - 1), dtype=np.float64)
    factors = np.empty((reps, spec.q), dtype=np.float64)
    noise = np.empty((reps, n), dtype=np.float64)
    for i in range(reps):
        # jumped(k) adds k to the third counter word, so opening the stream
        # at that counter gives the same state without the jump; r stays
        # far below 2**64 (check_replications), so the word never carries
        stream = np.random.Philox(key=spec.seed, counter=[0, 0, start + i + 1, 0])
        rng = np.random.Generator(stream)
        if d > 1:
            rng.standard_normal(out=draws[i])
        rng.standard_normal(out=factors[i])
        rng.standard_normal(out=noise[i])
    Z = np.ones((reps, n, d), dtype=np.float64)
    if d > 1:
        Z[:, :, 1:] = draws if spec.covariate_law == "normal" else np.exp(draws, out=draws)
    sigma_rows = np.repeat(np.asarray(spec.sigma), spec.sizes)
    factor_rows = np.repeat(factors, spec.sizes, axis=1)
    eps = sigma_rows * (
        math.sqrt(spec.rho) * factor_rows + math.sqrt(1.0 - spec.rho) * noise
    )
    y = Z @ np.asarray(spec.beta) + eps
    if not np.all(np.isfinite(y)):
        # non-finite covariates always make the outcome non-finite too
        raise NonFiniteValue("outcomes contain non-finite values")
    return y, Z


def generate(spec: DgpSpec, replication: int) -> ClusteredDataset:
    """Draw one dataset; fully determined by (spec.seed, replication)."""
    if replication < 0:
        raise ValueError("replication index must be >= 0")
    y, Z = _draw(spec, replication, replication + 1)
    # rows are already contiguous in cluster order, labelled 1..q
    return ClusteredDataset(
        outcomes=y[0], covariates=Z[0], sizes=spec.sizes, labels=range(1, spec.q + 1)
    )


@dataclass(frozen=True)
class MonteCarloReport:
    """Rejection rate of a study, with its Monte Carlo standard error."""

    replications: int
    rejections: int
    rate: float
    mc_stderr: float
    p_values: np.ndarray
    alpha: float
    null_value: float
    seed: int

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rejection rate must lie in [0, 1]")
        object.__setattr__(
            self, "p_values", _frozen(np.asarray(self.p_values, dtype=np.float64))
        )


# Replications are drawn and fitted in chunks whose covariate block
# holds about this many bytes, so the stacked arrays stay small.
_CHUNK_BYTES = 2**18

# A study of R replications at q clusters keeps about R * 8 * (q + 12)
# bytes: its (q, R) scores, the engine's (3, R) results, the report's
# p-values and their rendering.  Larger studies are refused up front.
_MAX_STUDY_BYTES = 2**30


def check_replications(q: int, replications: int) -> None:
    """Refuse a study with no replication or whose arrays would pass 1 GiB."""
    if replications < 1:
        raise ValueError("need at least one replication")
    need = replications * 8 * (q + 12)
    if need > _MAX_STUDY_BYTES:
        raise ValueError(
            f"replications {replications} at q = {q} needs about "
            f"{need / 2**30:.1f} GiB, above the {_MAX_STUDY_BYTES / 2**30:.0f} GiB limit"
        )


def _study_scores(spec: DgpSpec, hypothesis: LinearHypothesis, replications: int) -> np.ndarray:
    """The (q, replications) block of per-cluster scores, chunk by chunk."""
    sizes = np.asarray(spec.sizes, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    labels = range(1, spec.q + 1)
    chunk = max(1, _CHUNK_BYTES // (8 * spec.n * spec.d_z))
    scores = np.empty((spec.q, replications))
    for start in range(0, replications, chunk):
        stop = min(start + chunk, replications)
        betas, _ = fit_clusters(*_draw(spec, start, stop), offsets, labels)
        w, cbeta = _cluster_terms(betas, sizes, hypothesis.contrast)
        scores[:, start:stop] = (w * (cbeta - hypothesis.value)).T
    return scores


def _study(
    spec: DgpSpec,
    contrast,
    null_value: float | None,
    alpha: float,
    replications: int,
    group: SignGroup | None,
    variant: str,
) -> MonteCarloReport:
    """Run a study of ``c'beta = null_value``; ``None`` tests the spec's true value."""
    check_replications(spec.q, replications)
    if group is None:
        group = enumerate_group(spec.q, mode="auto", seed=spec.seed)
    c = np.asarray(contrast, dtype=np.float64).reshape(-1)
    if c.shape[0] != spec.d_z:
        raise ValueError("contrast length must equal the covariate count")
    if null_value is None:
        null_value = float(c @ np.asarray(spec.beta))
    hypothesis = LinearHypothesis(contrast=c, value=null_value)
    scores = _study_scores(spec, hypothesis, replications)
    statistic, crit, p_values = run_test_columns(scores, alpha, group, variant)
    rejections = int(np.count_nonzero(statistic > crit))
    rate = rejections / replications
    return MonteCarloReport(
        replications=replications,
        rejections=rejections,
        rate=rate,
        mc_stderr=math.sqrt(rate * (1.0 - rate) / replications),
        p_values=p_values,
        alpha=float(alpha),
        null_value=float(null_value),
        seed=spec.seed,
    )


def size_study(
    spec: DgpSpec,
    contrast,
    alpha: float,
    replications: int,
    *,
    group: SignGroup | None = None,
    variant: str = "unstudentized",
) -> MonteCarloReport:
    """Rejection rate when the tested value is the truth (null imposed)."""
    return _study(spec, contrast, None, alpha, replications, group, variant)


def power_study(
    spec: DgpSpec,
    contrast,
    null_value: float,
    alpha: float,
    replications: int,
    *,
    group: SignGroup | None = None,
    variant: str = "unstudentized",
) -> MonteCarloReport:
    """Rejection rate when testing ``null_value`` against the spec's truth.

    With ``null_value`` equal to the true contrast this reduces to
    :func:`size_study`.
    """
    return _study(spec, contrast, float(null_value), alpha, replications, group, variant)
