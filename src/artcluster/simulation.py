"""Monte Carlo harness: size and power of the randomization test.

Data are drawn from a clustered linear model with heterogeneous noise
scales and tunable within-cluster correlation.  Replication r of a study
uses the Philox stream ``Philox(key=seed).jumped(r + 1)``, so every
replication is reproducible in isolation, results do not depend on
execution order, and no replication shares the base stream that
sign-group sampling draws from.  Studies draw and fit the replications
in chunks of stacked arrays; a chunk draws from one Philox bit generator
whose counter is set to replication r's state before r draws, so the
chunking does not change any draw.
:func:`run_spec` runs the study that a ``simulate`` spec describes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from artcluster.errors import NonFiniteValue, check_bytes
from artcluster.estimation import fit_clusters
from artcluster.groups import DEFAULT_DRAWS, SignGroup, check_seed, enumerate_group
from artcluster.model import ClusteredDataset, LinearHypothesis, _frozen, check_contrast_length
from artcluster.randtest import check_variant, run_test_columns, weighted_scores

__all__ = ["DgpSpec", "MonteCarloReport", "generate", "power_study", "run_spec", "size_study"]

COVARIATE_LAWS = ("normal", "lognormal")


def integral(value, name: str = "value") -> int:
    """An integer or integral number as int; booleans, fractions, non-finite
    numbers and strings raise ValueError instead of being truncated."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or (math.isfinite(value) and value == int(value)):
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DgpSpec:
    """A clustered linear data-generating process.

    Covariates are an intercept column followed by ``d_z - 1`` columns of
    i.i.d. draws from ``covariate_law`` ("normal" or "lognormal", the
    latter to stress conditioning); ``sizes`` and ``seed`` pass :func:`integral`.
    Noise for observation i in cluster j is
    ``sigma[j] * (sqrt(rho) * f_j + sqrt(1 - rho) * e_ij)`` with
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
        sizes = tuple(integral(s, "sizes") for s in self.sizes)
        seed = integral(self.seed, "seed")
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
        check_seed(seed)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "seed", seed)

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
    that order, from ``Philox(key=spec.seed).jumped(r + 1)``: one stream
    whose counter is set to that state before each replication.  The
    arithmetic after the draws runs on the whole stack at once.
    """
    reps, n, d = stop - start, spec.n, spec.d_z
    draws = np.empty((reps, n, d - 1), dtype=np.float64)
    factors = np.empty((reps, spec.q), dtype=np.float64)
    noise = np.empty((reps, n), dtype=np.float64)
    # jumped(k) adds k to the third counter word and empties the output
    # buffer, so setting that state on one stream replays the jumped stream
    # without a generator per replication; r stays far below 2**64
    # (check_study), so the word never carries
    stream = np.random.Philox(key=spec.seed)
    rng = np.random.Generator(stream)
    state = {**stream.state, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i in range(reps):
        state["state"]["counter"][2] = start + i + 1
        stream.state = state
        if d > 1:
            rng.standard_normal(out=draws[i])
        rng.standard_normal(out=factors[i])
        rng.standard_normal(out=noise[i])
    Z = np.ones((reps, n, d), dtype=np.float64)
    if d > 1:
        Z[:, :, 1:] = draws if spec.covariate_law == "normal" else np.exp(draws, out=draws)
    sigma_rows = np.repeat(np.asarray(spec.sigma), spec.sizes)
    factor_rows = np.repeat(factors, spec.sizes, axis=1)
    # huge betas or noise scales overflow here; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
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
    _chunk_length(spec)  # refuses sizes too large to draw
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
    rate: float = field(init=False)
    mc_stderr: float = field(init=False)
    p_values: np.ndarray
    alpha: float
    null_value: float
    seed: int

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not 0 <= self.rejections <= self.replications:
            raise ValueError("rejections must lie in [0, replications]")
        rate = self.rejections / self.replications
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "mc_stderr", math.sqrt(rate * (1.0 - rate) / self.replications))
        object.__setattr__(
            self, "p_values", _frozen(np.asarray(self.p_values, dtype=np.float64))
        )


# Replications are drawn and fitted in chunks whose covariate block
# holds about this many bytes, so the stacked arrays stay small.
_CHUNK_BYTES = 2**18


def _chunk_length(spec: DgpSpec) -> int:
    """Replications per chunk, at least 1; refuses sizes whose chunk passes the limit.

    A drawn and fitted replication holds about 8 * (2 d_z + 6) bytes per
    row: its covariates twice, then outcomes, noise and their temporaries.
    """
    chunk = max(1, _CHUNK_BYTES // (8 * spec.n * spec.d_z))
    check_bytes(f"dgp.sizes (n = {spec.n}) at d_z = {spec.d_z}",
                chunk * 8 * spec.n * (2 * spec.d_z + 6))
    return chunk


def _field(name: str, convert, value):
    """``convert(value)``; a value of the wrong type is a ValueError naming the spec field."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"simulation spec field {name!r} is invalid: {value!r}") from None


def _read(doc: dict, name: str, convert=lambda v: v, default=None):
    """Spec field ``name`` (``section.key``) of ``doc``, converted; required without a default."""
    key = name.rpartition(".")[2]
    if default is None and key not in doc:
        raise ValueError(f"simulation spec is missing the {name!r} field")
    return _field(name, convert, doc.get(key, default))


def check_study(q: int, alpha, replications) -> tuple[float, int]:
    """A study's level and replication count, checked as spec fields.

    R replications at q clusters keep about R * 8 * (q + 12) bytes: the
    (q, R) scores, the engine's (3, R) results, the report's p-values and
    their rendering.
    """
    alpha = _field("alpha", float, alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("simulation spec field 'alpha' must lie strictly between 0 and 1")
    replications = _field("replications", integral, replications)
    if replications < 1:
        raise ValueError("need at least one replication")
    check_bytes(f"replications {replications} at q = {q}", replications * 8 * (q + 12))
    return alpha, replications


def _study_scores(spec: DgpSpec, hypothesis: LinearHypothesis, replications: int) -> np.ndarray:
    """The (q, replications) block of per-cluster scores, chunk by chunk."""
    chunk = _chunk_length(spec)
    sizes = np.asarray(spec.sizes, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    labels = range(1, spec.q + 1)
    scores = np.empty((spec.q, replications))
    for start in range(0, replications, chunk):
        stop = min(start + chunk, replications)
        betas = fit_clusters(*_draw(spec, start, stop), offsets, labels)
        scores[:, start:stop] = weighted_scores(
            betas, sizes, hypothesis.contrast, hypothesis.value
        ).T
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
    alpha, replications = check_study(spec.q, alpha, replications)
    check_variant(variant)
    if group is None:
        group = enumerate_group(spec.q, mode="auto", seed=spec.seed)
    c = np.asarray(contrast, dtype=np.float64).reshape(-1)
    check_contrast_length(c, spec.d_z)
    if null_value is None:
        null_value = float(c @ np.asarray(spec.beta))
    hypothesis = LinearHypothesis(contrast=c, value=null_value)
    scores = _study_scores(spec, hypothesis, replications)
    statistic, crit, p_values = run_test_columns(scores, alpha, group, variant)
    return MonteCarloReport(
        replications=replications,
        rejections=int(np.count_nonzero(statistic > crit)),
        p_values=p_values,
        alpha=alpha,
        null_value=float(null_value),
        seed=spec.seed,
    )


def size_study(
    spec: DgpSpec,
    contrast,
    alpha: float,
    replications: int,
    *,
    variant: str = "unstudentized",
) -> MonteCarloReport:
    """Rejection rate when the tested value is the truth (null imposed), on the auto group."""
    return _study(spec, contrast, None, alpha, replications, None, variant)


def power_study(
    spec: DgpSpec,
    contrast,
    null_value: float,
    alpha: float,
    replications: int,
    *,
    variant: str = "unstudentized",
) -> MonteCarloReport:
    """Rejection rate when testing ``null_value`` against the spec's truth, on the auto group.

    With ``null_value`` equal to the true contrast this reduces to
    :func:`size_study`.
    """
    return _study(spec, contrast, float(null_value), alpha, replications, None, variant)


def run_spec(doc, default_seed: int = 0) -> tuple[dict, MonteCarloReport]:
    """Run the study that a ``simulate`` spec mapping describes.

    Every field is checked before anything is drawn, and a refused field
    is a ValueError that names it; ``default_seed`` stands in for a missing
    ``dgp.seed``.  Returns the spec as resolved, with its defaults filled
    in, and the study's report.
    """
    if not isinstance(doc, dict):
        raise ValueError("simulation spec must be a JSON object")
    dgp_doc = _read(doc, "dgp", dict)
    dgp = DgpSpec(
        sizes=_read(dgp_doc, "dgp.sizes", lambda v: tuple(map(integral, v))),
        beta=_read(dgp_doc, "dgp.beta", lambda v: tuple(map(float, v))),
        sigma=_read(dgp_doc, "dgp.sigma", lambda v: tuple(map(float, v))),
        rho=_read(dgp_doc, "dgp.rho", float, 0.0),
        covariate_law=dgp_doc.get("covariate_law", "normal"),
        seed=_read(dgp_doc, "dgp.seed", integral, default_seed),
    )
    study = _read(doc, "study")
    contrast = _read(doc, "contrast", lambda v: np.asarray(v, dtype=np.float64))
    # a refused replication count is reported before any error in the spec's group
    alpha, replications = check_study(dgp.q, _read(doc, "alpha"), _read(doc, "replications"))
    variant = doc.get("variant", "unstudentized")
    group = None
    if doc.get("group") is not None:
        group_doc = _read(doc, "group", dict)
        group = enumerate_group(
            dgp.q,
            group_doc.get("mode", "auto"),
            _read(group_doc, "group.draws", integral, DEFAULT_DRAWS),
            _read(group_doc, "group.seed", integral, dgp.seed),
            draws_name="group.draws",
        )
    if study not in ("size", "power"):
        raise ValueError(f"study must be 'size' or 'power', got {study!r}")
    null_value = _read(doc, "null_value", float) if study == "power" else None
    report = _study(dgp, contrast, null_value, alpha, replications, group, variant)
    resolved = dict(study=study, alpha=alpha, replications=replications, contrast=contrast,
                    null_value=report.null_value, variant=variant, dgp=asdict(dgp),
                    group=None if group is None else group.describe())
    return resolved, report
