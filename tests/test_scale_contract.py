"""The public calls under a change of units: finite numbers or a documented error.

Multiplying the outcome, the contrast, the hypothesized values or the
covariates by a power of two is exact, and the paper's statistics are
unit-free.  Whatever the scale, each public call either returns finite
numbers or raises ``ArtClusterError`` or ``ValueError``; none ends in
numpy's ``LinAlgError`` or emits a ``RuntimeWarning``.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from artcluster import (
    ArtClusterError,
    ClusteredDataset,
    LinearHypothesis,
    MultiHypothesis,
    fit_per_cluster,
    fit_restricted,
    run_wald_test,
    scores_from_estimates,
    scores_via_restricted,
)
from artcluster.groups import SignGroup
from artcluster.randtest import run_test_from_scores
from tests.conftest import random_contrast, random_dataset

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
