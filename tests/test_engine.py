"""The batched test engine against the one-null-at-a-time oracle, bit for bit.

``run_test_columns`` tests every column of a (q, k) score block, sweeping
chunks of columns at once.  Each column must get exactly the statistic
and tie-snapped p-value that ``tests/oracles.decision_loop`` gives for
that column alone, and a single test of the column
(``run_test_from_scores``) the oracle's critical value too, compared on
the float64 bit patterns.  The studentized variant takes its statistic
and critical value from the studentized oracle and its p-value from the
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
from artcluster.randtest import (
    _wald_ingredients,
    run_test_columns,
    run_test_from_scores,
    run_wald_test,
)
from tests.oracles import (
    bit_expansion_signs,
    bits,
    column_loop_means,
    decision_loop,
    engine_loop,
    sampled_signs,
    snapped_pvalue,
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
    edges = [k for k in edge_widths(step) if k <= 300]
    k = draw(st.one_of(st.sampled_from(edges), st.integers(0, 300)))
    kind = draw(st.sampled_from(["integer", "tenths", "normal", "near-tie"]))
    variant = draw(st.sampled_from(["unstudentized", "studentized"]))
    values = score_block(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), q, k, kind)
    if variant == "studentized":
        # an all-equal column has zero spread at the identity; that case has its own test
        flat = np.all(values == values[:1], axis=0)
        values[0, flat] += 1.0
    elif k:
        values[:, -1] = 0.0
    # exact scales; the studentized oracle squares unscaled values above 2^-511
    scale = draw(st.integers(-400, 400) if variant == "studentized" else st.integers(-1000, 1000))
    alpha = draw(st.sampled_from([0.05, 0.1, 0.32]))
    return group, signs, np.ldexp(values, scale), alpha, variant, chunk


class TestEngineMatchesOracle:
    @settings(max_examples=50, deadline=None)
    @given(instance=instances())
    def test_columns_match_decision_loop(self, instance):
        """Each column's statistic and p-value, and its single test's critical value too."""
        group, signs, values, alpha, variant, chunk = instance
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(randtest, "_CHUNK_STATISTICS", chunk)
            got = run_test_columns(values, group, variant)
        expected = decision_loop(signs, values, alpha, variant)
        if variant == "studentized":
            expected[2] = decision_loop(signs, values, alpha)[2]
        assert got.shape == (2, values.shape[1])
        assert np.array_equal(bits(got), bits(expected[::2]))
        for column, want in zip(values.T, expected.T):
            result = run_test_from_scores(column, alpha, group, variant)
            got = [result.statistic, result.critical_value, result.p_value]
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("q", range(2, 13))
    def test_every_chunk_edge_exhaustive(self, q, monkeypatch):
        monkeypatch.setattr(randtest, "_CHUNK_STATISTICS", SMALL_CHUNK)
        group, signs = exhaustive(q)
        widths = edge_widths(chunk_width(group))
        values = score_block(np.random.default_rng(q), q, widths[-1], "tenths")
        expected = engine_loop(signs, values)
        for k in widths:
            got = run_test_columns(values[:, :k], group)
            assert np.array_equal(bits(got), bits(expected[:, :k])), f"k={k}"

    def test_chunk_edges_at_the_shipped_chunk(self):
        group, signs = exhaustive(8)
        step = chunk_width(group)
        assert step == randtest._CHUNK_STATISTICS // 2**7  # the 2^7 rows with g_0 = +1
        values = score_block(np.random.default_rng(8), 8, step + 1, "tenths")
        expected = engine_loop(signs, values)
        for k in (step - 1, step, step + 1):
            got = run_test_columns(values[:, :k], group)
            assert np.array_equal(bits(got), bits(expected[:, :k])), f"k={k}"

    def test_near_ties_are_snapped(self):
        # the identity sums to 0.1 + 0.1 + 0.1 - 0.1 = 0.20000000000000004;
        # six other sign vectors sum to +-0.2, an ulp below in absolute
        # value.  Snapped, 10 of 16 count; by exact >=, only 4 would.
        values = np.array([[0.1], [0.1], [0.1], [-0.1]])
        group, signs = exhaustive(4)
        got = run_test_columns(values, group)
        assert np.array_equal(bits(got), bits(engine_loop(signs, values)))
        assert got[1, 0] == 10 / 16


    @pytest.mark.parametrize("q", range(3, 11))
    def test_studentized_pvalue_is_unstudentized_on_near_ties(self, q):
        group, signs = exhaustive(q)
        values = score_block(np.random.default_rng(q), q, 200, "near-tie")
        plain = decision_loop(signs, values, 0.1)
        studentized = decision_loop(signs, values, 0.1, "studentized")
        # snapped on the studentized scale, some of these p-values differ
        assert np.any(plain[2] != studentized[2])
        got = run_test_columns(values, group, "studentized")
        assert np.array_equal(bits(got[0]), bits(studentized[0]))
        assert np.array_equal(bits(got[1]), bits(plain[2]))


def boundary_scores(q: int, gap: int) -> np.ndarray:
    """Integer scores (v0, v1, 0, ..., 0) whose sweep takes two values, T and c, equally often.

    T = (v0 + v1) / q is the observed |mean| and c = (v0 - v1) / q is the
    tie threshold T - 1e-12 * T itself (``gap`` = 0) or the float one below
    it (``gap`` = 1).  At alpha = 0.5 the critical value is c, so the
    threshold equals it or lies one ulp above it, and the count must
    include or exclude every c.  Every sum of the sweep is exact.
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
        got = run_test_columns(values, group)
        statistic, p_value = got[:, 0]
        crit = run_test_from_scores(values[:, 0], 0.5, group).critical_value
        thresh = statistic - 1e-12 * statistic
        assert thresh == (crit if gap == 0 else np.nextafter(crit, np.inf))
        assert p_value == (1.0 if gap == 0 else 0.5)
        assert bits(crit) == bits(decision_loop(signs, values, 0.5)[1, 0])
        assert np.array_equal(bits(got), bits(engine_loop(signs, values)))

    def test_both_counts_in_uniform_and_mixed_chunks(self, monkeypatch):
        # chunks of two columns: (at, above) and (above, at) mix the two
        # counts in one chunk, (at, at) and the last (above) take one each
        group, signs = exhaustive(8)
        monkeypatch.setattr(randtest, "_CHUNK_STATISTICS", 2 * group.rows)
        pattern = [0, 1, 1, 0, 0, 0, 1]
        values = np.stack([boundary_scores(8, gap) for gap in pattern], axis=1)
        got = run_test_columns(values, group)
        assert np.array_equal(got[1], [1.0 if gap == 0 else 0.5 for gap in pattern])
        assert np.array_equal(bits(got), bits(engine_loop(signs, values)))

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
        calls, double_sums = [], kernels.double_sums

        def spy(sums, values, rows=1):
            calls.append((rows, len(values)))
            return double_sums(sums, values, rows)

        monkeypatch.setattr(kernels, "double_sums", spy)
        group, signs = exhaustive(q)
        values = score_block(np.random.default_rng(q * k), q, k, kind)
        got = run_test_columns(values, group)
        # the head doubles over its first ``lead`` values once, then every
        # chunk doubles on from its 2^(lead-1) head rows over the rest
        width = max(1, (randtest._CHUNK_STATISTICS if chunk is None else chunk) // group.rows)
        chunks = -(-k // min(width, k))
        assert calls == [(1, lead - 1)] + [(2 ** (lead - 1), q - lead)] * chunks
        assert np.array_equal(bits(got), bits(engine_loop(signs, values)))

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
        got = run_test_columns(values, group, variant)
        assert np.array_equal(bits(got), bits(engine_loop(signs, values, variant)))

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
        tol = 1e-12 * stats.max()
        assert np.count_nonzero(np.abs(stats - stats[0]) <= tol) > 2  # beyond +-identity
        assert bits(result.statistic) == bits(stats[0])
        assert bits(result.critical_value) == bits(sort_critical_value(stats, 1.0 - alpha))
        if p == 1:  # the p-value is the |mean| test's
            expected = decision_loop(signs, scores, alpha)[2, 0]
        else:
            expected = snapped_pvalue(stats)
        assert bits(result.p_value) == bits(expected)


class TestDegenerateColumns:
    @pytest.mark.parametrize("position", ["first", "later-chunk"])
    def test_zero_column_studentized_raises(self, position):
        group, _ = exhaustive(6)
        step = chunk_width(group)
        values = score_block(np.random.default_rng(6), 6, 2 * step, "normal")
        values[:, 0 if position == "first" else step + 1] = 0.0
        with pytest.raises(DegenerateVariance):
            run_test_columns(values, group, "studentized")

    def test_zero_column_unstudentized_accepts(self):
        group, signs = exhaustive(6)
        values = np.zeros((6, 3))
        values[:, 1] = np.arange(1.0, 7.0)
        got = run_test_columns(values, group)
        assert got[1, 0] == got[1, 2] == 1.0
        assert np.array_equal(bits(got), bits(engine_loop(signs, values)))

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError):
            run_test_columns(np.array([[1.0], [np.inf]]), exhaustive(2)[0])

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            run_test_columns(np.array([[1.0], [2.0]]), exhaustive(2)[0], "wald")


FLOAT_MAX = np.finfo(np.float64).max


def division_boundary_scores(q: int) -> np.ndarray:
    """Columns (1, y, 0, ..., 0) whose row 1 - y sits on a division boundary.

    The identity sums to 1 + y, which is also the largest |sum|, so the
    tie threshold is T - 1e-12 * T for T = fl((1 + y) / q).  Scanning y in
    steps of 2^-53 near 5e-13 finds sums a = 1 - y (exact) with
    fl(a / q) >= T - 1e-12 * T > fl(nextafter(a, 0) / q), which count,
    and sums one float below such a boundary, which do not.
    """
    on, below = [], []
    for n in range(4000, 5000):
        y = n * 2.0**-53
        a, big = 1.0 - y, (1.0 + y) / q
        thresh = big - 1e-12 * big
        if a / q >= thresh > float(np.nextafter(a, 0.0)) / q:
            on.append(y)
        elif a / q < thresh <= float(np.nextafter(a, 2.0)) / q:
            below.append(y)
    assert on and below, "no division boundary found"
    values = np.zeros((q, len(on) + len(below)))
    values[0], values[1] = 1.0, on + below
    return values


def sum_edge_scores(q: int) -> np.ndarray:
    """Columns whose sum of |v_j| is the float max, or just below it: the guard's edge."""
    half = FLOAT_MAX / 2  # exact: the two halves sum to the max
    columns = [
        [half, half] + [0.0] * (q - 2),
        [half, -half] + [0.0] * (q - 2),
        [half, -np.nextafter(half, 0.0)] + [0.0] * (q - 2),
        [FLOAT_MAX / q] * (q - 1) + [np.nextafter(FLOAT_MAX / q, 0.0)],
    ]
    values = np.array(columns).T
    assert np.all(np.isfinite(np.abs(values).sum(axis=0)))
    return values


def zero_scores(q: int) -> np.ndarray:
    """All-zero columns: +0.0, -0.0, and both mixed."""
    values = np.zeros((q, 3))
    values[:, 1] = -0.0
    values[::2, 2] = -0.0
    return values


def subnormal_scores(q: int) -> np.ndarray:
    """Integer multiples of 2^-1074: every sum is exact and subnormal."""
    ints = np.random.default_rng(q).integers(-40, 41, size=(q, 40)).astype(np.float64)
    ints[0, np.all(ints == ints[:1], axis=0)] += 1.0
    return np.ldexp(ints, -1074)


class TestRawSumCounts:
    """Counting raw |sums| against each column's least counting sum, at the arithmetic's edges."""

    @pytest.mark.parametrize("variant", ["unstudentized", "studentized"])
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize(
        "make", [division_boundary_scores, zero_scores, sum_edge_scores, subnormal_scores],
        ids=["division-boundary", "zero", "sum-edge", "subnormal"],
    )
    @pytest.mark.parametrize("q", [2, 3, 7, 10])
    def test_columns_match_engine_loop(self, q, make, mode, variant):
        if mode == "exhaustive":
            group, signs = exhaustive(q)
        else:
            group, signs = SignGroup(q, "sampled", seed=q, draws=64), sampled_signs(q, 64, q)
        values = make(q)
        expected = engine_loop(signs, values)
        if variant == "unstudentized":
            assert np.array_equal(bits(run_test_columns(values, group)), bits(expected))
            return
        # one column at a time: a zero spread at the identity raises for its block
        for column, want in zip(values.T, expected.T):
            column = column[:, None]
            # the statistic is unchanged by an exact 2^k scale; the oracle
            # squares unscaled values, which overflow at the sum's edge
            scaled = np.ldexp(column, -600) if make is sum_edge_scores else column
            try:
                want[0] = engine_loop(signs, scaled, variant)[0, 0]
            except DegenerateVariance:
                with pytest.raises(DegenerateVariance):
                    run_test_columns(column, group, variant)
                continue
            got = run_test_columns(column, group, variant)[:, 0]
            assert np.array_equal(bits(got), bits(want))

    def test_boundary_sums_decide_the_count(self):
        # at q = 2 the two rows sum to 1 + y and 1 - y: a boundary sum
        # counts, giving p = 1, and the float below one does not, p = 1/2
        group, signs = exhaustive(2)
        values = division_boundary_scores(2)
        big = (1.0 + values[1]) / 2
        counts = (1.0 - values[1]) / 2 >= big - 1e-12 * big
        got = run_test_columns(values, group)
        assert counts.any() and not counts.all()
        assert np.array_equal(got[1], np.where(counts, 1.0, 0.5))
        assert np.array_equal(bits(got), bits(engine_loop(signs, values)))

    def test_sampled_tolerance_follows_the_drawn_rows(self):
        # Two columns i, j with the same signs in every drawn row carry +-2^41,
        # which cancels in every drawn sum but not in the sum of |v_j|, about
        # 4.4e12.  The drawn |sums| are 4 and 2: a tolerance of 1e-12 times the
        # sum of |v_j| would count the 2s as ties of the observed 4.
        q, draws = 12, 4
        group, signs = SignGroup(q, "sampled", seed=1, draws=draws), sampled_signs(q, draws, 1)
        patterns = {}
        for col in range(q):
            patterns.setdefault(tuple(signs[1:, col]), []).append(col)
        i, j = next(cols for cols in patterns.values() if len(cols) > 1)[:2]
        row = next(r for r in range(1, draws) if len(set(np.delete(signs[r], [i, j]))) == 2)
        rest = [c for c in range(q) if c not in (i, j)]
        k = next(c for c in rest if signs[row, c] == 1)
        ell = next(c for c in rest if signs[row, c] == -1)
        values = np.zeros((q, 1))
        values[[i, j, k, ell], 0] = 2.0**41, -(2.0**41), 3.0, 1.0
        drawn = np.abs(signs @ values[:, 0])
        assert drawn[0] == 4.0 and 2.0 in drawn and set(drawn) <= {2.0, 4.0}
        got = run_test_columns(values, group)
        assert got[1, 0] == np.count_nonzero(drawn == 4.0) / draws
        assert np.array_equal(bits(got), bits(engine_loop(signs, values)))


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
        expected = engine_loop(signs, w[:, None] * (cbeta[:, None] - grid))
        keep = inversion_scan(estimates, c, alpha, group, grid)
        assert np.array_equal(keep, expected[1] > alpha), f"instance {i}"
