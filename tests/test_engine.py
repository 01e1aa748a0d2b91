"""The batched test engine against the one-null-at-a-time oracle, bit for bit.

``run_test_columns`` tests every column of a (q, k) score block, sweeping
chunks of columns at once.  Each column must get exactly the decision
that ``tests/oracles.decision_loop`` reaches for that column alone: the
same statistic, critical value and tie-snapped p-value, compared on the
float64 bit patterns.  The studentized variant takes its statistic and
critical value from the studentized oracle and its p-value from the
unstudentized one (the p-value does not depend on studentization).
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artcluster import (
    DegenerateVariance,
    MultiHypothesis,
    canonicalize,
    fit_per_cluster,
    kernels,
    randtest,
)
from artcluster.groups import SignGroup
from artcluster.intervals import default_inversion_grid, inversion_scan
from artcluster.randtest import _wald_ingredients, run_test_columns, run_wald_test
from tests.oracles import (
    bit_expansion_signs,
    bits,
    column_loop_means,
    decision_loop,
    sampled_signs,
    sort_critical_value,
    wald_quadratic_loop,
)
from tests.test_acceptance import make_instance


@lru_cache(maxsize=None)
def exhaustive(q: int):
    return SignGroup(q, "exhaustive"), bit_expansion_signs(q)


# Chunk-edge cases patch the engine's chunk to this many statistics, so
# that k = 3 * step + 2 columns stays small at q = 2 and the one-column
# chunks of a group with m >= the chunk are reached at q >= 8.
SMALL_CHUNK = 2**8


def chunk_width(group) -> int:
    return max(1, randtest._CHUNK_STATISTICS // group.rows)


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
    step = max(1, chunk // group.rows)
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
        assert step == 2**16 // 2**7  # a sweep returns the 2^7 rows with g_0 = +1
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


def boundary_scores(q: int, gap: int) -> np.ndarray:
    """Integer scores (v0, v1, 0, ..., 0) whose sweep takes two values, T and c, equally often.

    T = (v0 + v1) / q is the observed |mean| and c = (v0 - v1) / q is the
    tie threshold T - 1e-12 * T itself (``gap`` = 0) or the float one below
    it (``gap`` = 1).  At alpha = 0.5 the critical value is c, so the
    threshold equals it or lies one ulp above it: the two ways
    ``randtest.decide`` counts.  Every sum of the sweep is exact.
    """
    # T in [2^51, 2^52), where floats are spaced 0.5: steps of 2^37 move
    # the rounding of 1e-12 * T, so v0 and v1 come out whole for some j
    for j in range(1, 4096):
        t = 2.0**51 + 2.0**37 * j + 0.5 * (j % 7)
        c = t - 1e-12 * t
        for _ in range(gap):
            c = float(np.nextafter(c, -np.inf))
        v0, v1 = (Fraction(q, 2) * (Fraction(t) + s * Fraction(c)) for s in (1, -1))
        if all(v.denominator == 1 and Fraction(float(v)) == v for v in (v0, v1)):
            return np.array([float(v0), float(v1)] + [0.0] * (q - 2))
    raise AssertionError("no exact boundary scores found")


class TestConstructedDecisions:
    """Constructed ties, chunk layouts and heads, each against ``decision_loop`` bit for bit."""

    @pytest.mark.parametrize("q", [2, 4, 8])
    @pytest.mark.parametrize("gap", [0, 1], ids=["at", "one-ulp-above"])
    def test_threshold_at_or_one_ulp_above_the_critical_value(self, q, gap):
        group, signs = exhaustive(q)
        values = boundary_scores(q, gap)[:, None]
        got = run_test_columns(values, 0.5, group)
        statistic, crit, p_value = got[:, 0]
        thresh = statistic - 1e-12 * statistic
        assert thresh == (crit if gap == 0 else np.nextafter(crit, np.inf))
        assert p_value == (1.0 if gap == 0 else 0.5)
        assert np.array_equal(bits(got), bits(decision_loop(signs, values, 0.5)))

    def test_both_counts_in_uniform_and_mixed_chunks(self, monkeypatch):
        # chunks of two columns: (at, above) and (above, at) mix the two
        # counts in one chunk, (at, at) and the last (above) take one each
        group, signs = exhaustive(8)
        monkeypatch.setattr(randtest, "_CHUNK_STATISTICS", 2 * group.rows)
        pattern = [0, 1, 1, 0, 0, 0, 1]
        values = np.stack([boundary_scores(8, gap) for gap in pattern], axis=1)
        got = run_test_columns(values, 0.5, group)
        assert np.array_equal(got[2], [1.0 if gap == 0 else 0.5 for gap in pattern])
        assert np.array_equal(bits(got), bits(decision_loop(signs, values, 0.5)))

    @pytest.mark.parametrize(
        "q,k,chunk,lead",
        [
            (8, 1, None, 8),  # one score vector: the head is the whole sweep
            (6, 20, None, 6),  # all 20 columns in one chunk of 20 * 2^5 sums
            (10, 20, 2**8, 4),  # a head of 8 rows, then one column per chunk
            (8, 600, 2**8, 1),  # 600 columns exceed the chunk: a head of one row
            (2, 5, None, 2),
            (2, 5, 2, 1),
        ],
    )
    @pytest.mark.parametrize("kind", ["integer", "tenths"])
    def test_heads_and_chunks(self, q, k, chunk, lead, kind, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(randtest, "_CHUNK_STATISTICS", chunk)
        heads, exhaustive_sums = [], kernels.exhaustive_sums

        def spy(values):
            heads.append(values.shape[0])
            return exhaustive_sums(values)

        monkeypatch.setattr(kernels, "exhaustive_sums", spy)
        group, signs = exhaustive(q)
        values = score_block(np.random.default_rng(q * k), q, k, kind)
        got = run_test_columns(values, 0.1, group)
        assert heads == [lead]
        assert np.array_equal(bits(got), bits(decision_loop(signs, values, 0.1)))

    @pytest.mark.parametrize("variant", ["unstudentized", "studentized"])
    @pytest.mark.parametrize("draws", [300, 2**14 + 5])
    def test_sampled_groups_on_integer_ties(self, variant, draws, monkeypatch):
        # 2^10 statistics per chunk: three columns per chunk at 300 draws,
        # and one column of 2^14 + 5 draws, which span two row chunks
        monkeypatch.setattr(randtest, "_CHUNK_STATISTICS", 2**10)
        q = 9
        group = SignGroup(q, "sampled", seed=draws, draws=draws)
        signs = sampled_signs(q, draws, draws)
        values = score_block(np.random.default_rng(draws), q, 8, "integer")
        values[0, np.all(values == values[:1], axis=0)] += 1.0
        got = run_test_columns(values, 0.1, group, variant)
        expected = decision_loop(signs, values, 0.1)
        if variant == "studentized":
            expected[:2] = decision_loop(signs, values, 0.1, variant)[:2]
        assert np.array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("alpha", [0.05, 0.3])
    def test_wald_on_tied_clusters(self, p, alpha):
        # eight clusters copied from three, some with the outcome negated,
        # which negates their scores exactly: flipping a cluster and its
        # negated copy together ties the observed statistic, up to rounding
        rng = np.random.default_rng(p)
        base = [(rng.standard_normal((12, 3)), rng.standard_normal(12)) for _ in range(3)]
        picks = [(0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (0, 1), (1, 1), (2, 1)]
        Z = np.concatenate([base[i][0] for i, _ in picks])
        y = np.concatenate([sign * base[i][1] for i, sign in picks])
        data = canonicalize(np.repeat(np.arange(8), 12), y, Z)
        mh = MultiHypothesis(restriction=np.eye(3)[:p], values=np.zeros(p))
        group, signs = exhaustive(8)
        result = run_wald_test(data, mh, alpha, group)
        scores, sigma_inv, e = _wald_ingredients(fit_per_cluster(data), mh)
        stats = wald_quadratic_loop(signs, np.ldexp(scores, e), sigma_inv)
        tol = 1e-12 * max(1.0, stats[0])
        assert np.count_nonzero(np.abs(stats - stats[0]) <= tol) > 2  # beyond +-identity
        assert bits(result.statistic) == bits(stats[0])
        assert bits(result.critical_value) == bits(sort_critical_value(stats, 1.0 - alpha))
        if p == 1:  # the p-value is the |mean| test's
            expected = decision_loop(signs, scores, alpha)[2, 0]
        else:
            expected = np.count_nonzero(stats >= stats[0] - 1e-12 * max(1.0, stats[0])) / stats.size
        assert bits(result.p_value) == bits(expected)


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
