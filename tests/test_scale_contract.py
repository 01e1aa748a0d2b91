"""The public calls under a change of units: finite numbers or a documented error.

Multiplying the outcome, the contrast, the hypothesized values or the
covariates by a power of two is exact, and the paper's statistics are
unit-free.  Whatever the scale, each public call either returns finite
numbers or raises ``ArtClusterError`` or ``ValueError``; none ends in
numpy's ``LinAlgError`` or emits a ``RuntimeWarning``.  The restricted-route
oracle (``tests/oracles.py``) is held to the same contract.  A test's
decision is unit-free too: scores times 2^k keep their p-value and
decision, and a test rejects exactly where its p-value is at most alpha.
"""

import warnings
from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artcluster import (
    ArtClusterError,
    ClusteredDataset,
    DegenerateVariance,
    LinearHypothesis,
    MultiHypothesis,
    fit_per_cluster,
    run_wald_test,
    scores_from_estimates,
)
from artcluster.groups import SignGroup
from artcluster.randtest import run_test_from_scores
from tests.conftest import random_contrast, random_dataset
from tests.oracles import fit_restricted, scores_via_restricted

# the outcome, contrast and values scale up to the largest power that keeps
# a standard normal draw finite; the covariates from where the Gram
# matrices underflow (below 2^-511) up to 2^500
TARGETS = {
    "outcome": (-1070, 1015),
    "contrast": (-1070, 1015),
    "values": (-1070, 1015),
    "covariates": (-600, 500),
    "cluster": (-600, 500),
}


def _ldexp(x, k):
    """x * 2^k, infinite where it overflows (the constructors refuse that)."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, k)


@st.composite
def scaled_instances(draw):
    target = draw(st.sampled_from(sorted(TARGETS)))
    k = draw(st.integers(*TARGETS[target]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, d = draw(st.integers(4, 8)), draw(st.integers(2, 3))
    return target, k, rng, random_dataset(rng, q=q, d=d)


def _answers_or_documented(call):
    """``call`` returns finite numbers or raises a documented error, with warnings as errors."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = call()
    except (ArtClusterError, ValueError) as err:  # LinAlgError is a ValueError
        assert not isinstance(err, np.linalg.LinAlgError), err
    else:
        assert all(np.all(np.isfinite(v)) for v in out), out


@settings(max_examples=150, deadline=None)
@given(instance=scaled_instances())
def test_scaled_inputs_answer_or_refuse(instance):
    target, k, rng, data = instance
    d = data.d_z
    y, Z = data.outcomes, data.covariates
    contrast, value = random_contrast(rng, d), float(rng.standard_normal())
    restriction, values = np.eye(d)[1:], rng.standard_normal(d - 1)
    if target == "outcome":
        y = _ldexp(y, k)
    elif target == "covariates":
        Z = _ldexp(Z, k)
    elif target == "cluster":
        Z = Z.copy()
        rows = data.cluster_slice(int(rng.integers(data.q)))
        Z[rows] = _ldexp(Z[rows], k)
    elif target == "contrast":
        contrast = _ldexp(contrast, k)
    else:
        value, values = float(_ldexp(value, k)), _ldexp(values, k)
    group = SignGroup(data.q, "exhaustive")

    def dataset():
        return ClusteredDataset(y, Z, data.sizes, data.labels)

    def hypothesis():
        return LinearHypothesis(contrast=contrast, value=value)

    def wald():
        mh = MultiHypothesis(restriction=restriction, values=values)
        res = run_wald_test(dataset(), mh, 0.1, group)
        return res.statistic, res.critical_value, res.p_value

    def studentized():
        scores = scores_from_estimates(fit_per_cluster(dataset()), hypothesis())
        res = run_test_from_scores(scores, 0.1, group, "studentized")
        return res.statistic, res.critical_value, res.p_value

    _answers_or_documented(lambda: (fit_restricted(dataset(), hypothesis()),))
    _answers_or_documented(lambda: (scores_via_restricted(dataset(), hypothesis()),))
    _answers_or_documented(wald)
    _answers_or_documented(studentized)


@lru_cache(maxsize=None)
def exhaustive(q: int) -> SignGroup:
    return SignGroup(q, "exhaustive")


@st.composite
def score_vectors(draw):
    """Integer, tenths, normal or near-tie scores; a near-tie moves one integer by j * 1e-12."""
    q = draw(st.integers(4, 8))
    kind = draw(st.sampled_from(["integer", "tenths", "normal", "near-tie"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        return rng.standard_normal(q)
    ints = rng.integers(-4, 5, size=q).astype(np.float64)
    if kind == "near-tie":
        ints[rng.integers(q)] += int(rng.integers(1, 6)) * float(rng.choice([-1e-12, 1e-12]))
    return 0.1 * ints if kind == "tenths" else ints


def _decision(scores, alpha, variant):
    """(p-value, reject) of the test of ``scores``, or the error it raises."""
    try:
        res = run_test_from_scores(scores, alpha, exhaustive(len(scores)), variant)
    except DegenerateVariance as err:
        return type(err)
    assert res.reject == (res.p_value <= alpha), res
    return res.p_value, res.reject


# the example's near-tie puts T a hair above the critical value, with p = 0.25 > alpha
@settings(max_examples=200, deadline=None)
@given(
    scores=score_vectors(),
    k=st.integers(-200, 200),
    variant=st.sampled_from(["unstudentized", "studentized"]),
    alpha=st.sampled_from([0.05, 0.1, 0.2]),
)
@example(scores=np.array([-3, 2, -2, -2.000000000001, -4]), k=-150, variant="unstudentized",
         alpha=0.2)
@example(scores=np.array([-3, 2, -2, -2.000000000001, -4]), k=0, variant="studentized",
         alpha=0.2)
def test_scaled_scores_keep_the_decision(scores, k, variant, alpha):
    assert _decision(np.ldexp(scores, k), alpha, variant) == _decision(scores, alpha, variant)
