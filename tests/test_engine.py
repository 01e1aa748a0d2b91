"""The batched test engine against the one-null-at-a-time oracle, bit for bit.

``run_test_columns`` tests every column of a (q, k) score block, sweeping
chunks of columns at once.  Each column must get exactly the decision
that ``tests/oracles.decision_loop`` reaches for that column alone: the
same statistic, critical value and tie-snapped p-value, compared on the
float64 bit patterns.  The studentized variant takes its statistic and
critical value from the studentized oracle and its p-value from the
unstudentized one (the p-value does not depend on studentization).
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artcluster import DegenerateVariance, fit_per_cluster, randtest
from artcluster.groups import SignGroup
from artcluster.intervals import default_inversion_grid, inversion_scan
from artcluster.randtest import run_test_columns
from tests.oracles import bit_expansion_signs, bits, decision_loop, sampled_signs
from tests.test_acceptance import make_instance


@lru_cache(maxsize=None)
def exhaustive(q: int):
    return SignGroup(q, "exhaustive"), bit_expansion_signs(q)


# Chunk-edge cases patch the engine's chunk to this many statistics, so
# that k = 3 * step + 2 columns stays small at q = 2 and the one-column
# chunks of a group with m >= the chunk are reached at q >= 8.
SMALL_CHUNK = 2**8


def chunk_width(group) -> int:
    return max(1, randtest._CHUNK_STATISTICS // group.size)


def edge_widths(step: int) -> list:
    """Column counts at every chunk edge: one chunk, one short, exact, one over, several."""
    return sorted({1, step - 1, step, step + 1, 3 * step + 2} - {0})


def score_block(rng, q: int, k: int, kind: str) -> np.ndarray:
    """Integer scores tie exactly; tenths make near-ties that only snapping merges.

    ``near-tie`` sets row 1 to -row 0 + j * 1e-12 (j = 1..5), so sign
    vectors that flip both rows move |mean| by about 2j * 1e-12 / q: a
    near-tie that the studentized scale can stretch past the tolerance.
    """
    if kind == "normal":
        return rng.standard_normal((q, k))
    if kind == "near-tie":
        values = rng.standard_normal((q, k))
        values[1] = -values[0] + rng.integers(1, 6, size=k) * 1e-12
        return values
    ints = rng.integers(-3, 4, size=(q, k)).astype(np.float64)
    return ints if kind == "integer" else 0.1 * ints


@st.composite
def instances(draw):
    q = draw(st.integers(2, 12))
    if draw(st.booleans()):
        group, signs = exhaustive(q)
    else:
        draws, seed = draw(st.integers(300, 3000)), draw(st.integers(0, 99))
        group = SignGroup(q, "sampled", seed=seed, draws=draws)
        signs = sampled_signs(q, draws, seed)
    chunk = 2 ** draw(st.integers(2, 12))
    step = max(1, chunk // group.size)
    k = draw(st.sampled_from(edge_widths(step)))
    kind = draw(st.sampled_from(["integer", "tenths", "normal", "near-tie"]))
    variant = draw(st.sampled_from(["unstudentized", "studentized"]))
    values = score_block(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), q, k, kind)
    if variant == "studentized":
        # an all-equal column has zero spread at the identity; that case has its own test
        flat = np.all(values == values[:1], axis=0)
        values[0, flat] += 1.0
    else:
        values[:, -1] = 0.0
    alpha = draw(st.sampled_from([0.05, 0.1, 0.32]))
    return group, signs, values, alpha, variant, chunk


class TestEngineMatchesOracle:
    @settings(max_examples=30, deadline=None)
    @given(instance=instances())
    def test_columns_match_decision_loop(self, instance):
        group, signs, values, alpha, variant, chunk = instance
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(randtest, "_CHUNK_STATISTICS", chunk)
            got = run_test_columns(values, alpha, group, variant)
        expected = decision_loop(signs, values, alpha)
        if variant == "studentized":
            expected[:2] = decision_loop(signs, values, alpha, variant)[:2]
        assert got.shape == expected.shape
        assert np.array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("q", range(2, 13))
    def test_every_chunk_edge_exhaustive(self, q, monkeypatch):
        monkeypatch.setattr(randtest, "_CHUNK_STATISTICS", SMALL_CHUNK)
        group, signs = exhaustive(q)
        widths = edge_widths(chunk_width(group))
        values = score_block(np.random.default_rng(q), q, widths[-1], "tenths")
        expected = decision_loop(signs, values, 0.1)
        for k in widths:
            got = run_test_columns(values[:, :k], 0.1, group)
            assert np.array_equal(bits(got), bits(expected[:, :k])), f"k={k}"

    def test_chunk_edges_at_the_shipped_chunk(self):
        group, signs = exhaustive(8)
        step = chunk_width(group)
        assert step > 1
        values = score_block(np.random.default_rng(8), 8, step + 1, "tenths")
        expected = decision_loop(signs, values, 0.1)
        for k in (step - 1, step, step + 1):
            got = run_test_columns(values[:, :k], 0.1, group)
            assert np.array_equal(bits(got), bits(expected[:, :k])), f"k={k}"

    def test_near_ties_are_snapped(self):
        # the identity sums to 0.1 + 0.1 + 0.1 - 0.1 = 0.20000000000000004;
        # six other sign vectors sum to +-0.2, an ulp below in absolute
        # value.  Snapped, 10 of 16 count; by exact >=, only 4 would.
        values = np.array([[0.1], [0.1], [0.1], [-0.1]])
        group, signs = exhaustive(4)
        got = run_test_columns(values, 0.1, group)
        assert np.array_equal(bits(got), bits(decision_loop(signs, values, 0.1)))
        assert got[2, 0] == 10 / 16


    @pytest.mark.parametrize("q", range(3, 11))
    def test_studentized_pvalue_is_unstudentized_on_near_ties(self, q):
        group, signs = exhaustive(q)
        values = score_block(np.random.default_rng(q), q, 200, "near-tie")
        plain = decision_loop(signs, values, 0.1)
        studentized = decision_loop(signs, values, 0.1, "studentized")
        # snapped on the studentized scale, some of these p-values differ
        assert np.any(plain[2] != studentized[2])
        got = run_test_columns(values, 0.1, group, "studentized")
        assert np.array_equal(bits(got[:2]), bits(studentized[:2]))
        assert np.array_equal(bits(got[2]), bits(plain[2]))


class TestDegenerateColumns:
    @pytest.mark.parametrize("position", ["first", "later-chunk"])
    def test_zero_column_studentized_raises(self, position):
        group, _ = exhaustive(6)
        step = chunk_width(group)
        values = score_block(np.random.default_rng(6), 6, 2 * step, "normal")
        values[:, 0 if position == "first" else step + 1] = 0.0
        with pytest.raises(DegenerateVariance):
            run_test_columns(values, 0.1, group, "studentized")

    def test_zero_column_unstudentized_accepts(self):
        group, signs = exhaustive(6)
        values = np.zeros((6, 3))
        values[:, 1] = np.arange(1.0, 7.0)
        got = run_test_columns(values, 0.1, group)
        assert got[2, 0] == got[2, 2] == 1.0
        assert np.array_equal(bits(got), bits(decision_loop(signs, values, 0.1)))

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError):
            run_test_columns(np.array([[1.0], [np.inf]]), 0.1, exhaustive(2)[0])

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            run_test_columns(np.array([[1.0], [2.0]]), 0.1, exhaustive(2)[0], "wald")


def test_inversion_scan_matches_oracle_loop():
    """Criterion 3's first 20 instances: batched keep masks equal the per-null loop."""
    alphas = (0.05, 0.10, 0.32)
    for i in range(20):
        q, d, alpha = 5 + i % 6, 1 + i % 3, alphas[i % 3]
        data, c, _ = make_instance(7000 + i, q, d)
        estimates = fit_per_cluster(data)
        group, signs = exhaustive(q)
        grid = default_inversion_grid(estimates, c)
        w, cbeta = np.sqrt(estimates.sizes), estimates.betas @ c
        expected = decision_loop(signs, w[:, None] * (cbeta[:, None] - grid), alpha)
        keep = inversion_scan(estimates, c, alpha, group, grid)
        assert np.array_equal(keep, ~(expected[0] > expected[1])), f"instance {i}"
