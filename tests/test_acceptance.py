"""Acceptance suite: exact equivalences, closed forms, anchored claims.

Each criterion prints one ``ACCEPTANCE <k> (<label>): PASS/FAIL`` line
(visible with ``pytest -s``) and enforces its runtime budget.
"""

import functools
import json
import time

import numpy as np
import pytest

from artcluster import (
    LinearHypothesis,
    MultiHypothesis,
    DgpSpec,
    fit_per_cluster,
    interval,
    interval_by_inversion,
    interval_inputs,
    plan_blocks,
    power_study,
    run_test,
    run_wald_test,
    size_study,
)
from artcluster.cli import main as cli_main
from artcluster.groups import SignGroup
from artcluster.intervals import default_inversion_grid, inversion_scan
from artcluster.model import canonicalize
from artcluster.randtest import run_test_from_scores, scores_from_estimates
from tests.oracles import pvalue_profile, scores_via_restricted


def criterion(num, label, limit_seconds=None):
    """Print one PASS/FAIL line per criterion and enforce the time budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if limit_seconds is not None and elapsed >= limit_seconds:
                    raise AssertionError(
                        f"criterion {num} took {elapsed:.1f}s, limit {limit_seconds}s"
                    )
            except BaseException:
                print(f"ACCEPTANCE {num} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({label}): PASS [{elapsed:.2f}s]")

        return wrapper

    return deco


# ------------------------------------------------------------------ #
# Shared instance pools
# ------------------------------------------------------------------ #

def group_for(q):
    return SignGroup(q, "exhaustive")


def make_instance(seed, q, d, size_hi=60):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(d + 1, size_hi + 1, size=q)
    n = int(sizes.sum())
    Z = rng.standard_normal((n, d))
    beta = rng.standard_normal(d)
    scales = np.repeat(0.5 + 2.0 * rng.random(q), sizes)
    y = Z @ beta + scales * rng.standard_normal(n)
    data = canonicalize(np.repeat(np.arange(q), sizes), y, Z)
    c = rng.standard_normal(d)
    while not np.any(c != 0.0):
        c = rng.standard_normal(d)
    lam = float(c @ beta + 0.3 * rng.standard_normal())
    return data, c, lam


@pytest.fixture(scope="module")
def score_instances():
    """200 instances spanning q in 3..10, d in 1..4 (criteria 1 and 2)."""
    pool = []
    for i in range(200):
        q = 3 + i % 8
        d = 1 + i % 4
        pool.append((make_instance(1000 + i, q, d), q))
    return pool


@pytest.fixture(scope="module")
def ci_instances():
    """100 instances with closed-form and grid-inversion results (3 and 4)."""
    alphas = (0.05, 0.10, 0.32)
    pool = []
    for i in range(100):
        q = 5 + i % 6
        d = 1 + i % 3
        alpha = alphas[i % 3]
        (data, c, _), _ = (make_instance(7000 + i, q, d), None)
        estimates = fit_per_cluster(data)
        group = group_for(q)
        inputs = interval_inputs(estimates, c, group)
        closed = interval(inputs, alpha)
        grid = default_inversion_grid(estimates, c)
        keep = inversion_scan(estimates, c, alpha, group, grid)
        pool.append(
            {
                "estimates": estimates,
                "contrast": c,
                "alpha": alpha,
                "group": group,
                "inputs": inputs,
                "closed": closed,
                "grid": grid,
                "keep": keep,
            }
        )
    return pool


# ------------------------------------------------------------------ #
# Criteria
# ------------------------------------------------------------------ #


@criterion(1, "score/estimate equivalence", limit_seconds=60)
def test_criterion_1_score_routes_agree(score_instances):
    for (data, c, lam), q in score_instances:
        h = LinearHypothesis(contrast=c, value=lam)
        s_est = scores_from_estimates(fit_per_cluster(data), h)
        s_res = scores_via_restricted(data, h)
        scale = max(1.0, float(np.max(np.abs(s_est))))
        assert np.allclose(
            s_res, s_est, rtol=1e-9, atol=1e-11 * scale
        ), f"score routes disagree beyond 1e-9 (q={q})"
        group = group_for(q)
        p_est = run_test_from_scores(s_est, 0.1, group).p_value
        p_res = run_test_from_scores(s_res, 0.1, group).p_value
        assert p_est == p_res, f"route p-values differ: {p_est} vs {p_res}"


@criterion(2, "studentization invariance", limit_seconds=60)
def test_criterion_2_studentization_irrelevant(score_instances):
    for (data, c, lam), q in score_instances:
        h = LinearHypothesis(contrast=c, value=lam)
        group = group_for(q)
        plain = run_test(data, h, 0.1, group, variant="unstudentized")
        stud = run_test(data, h, 0.1, group, variant="studentized")
        assert plain.p_value == stud.p_value, (
            f"studentized p {stud.p_value} != unstudentized {plain.p_value} (q={q})"
        )


@criterion(2, "studentization invariance on a constructed near-tie")
def test_criterion_2_constructed_near_tie():
    # flipping the first two scores moves the identity's |mean| 1.1 down by
    # 8e-13, inside the snap tolerance 1.1e-12, so 8 of 32 sign vectors
    # count; the studentized map stretches that gap to 2.2e-12, past its
    # own tolerance 1.8e-12, so snapping on that scale would give 6/32
    scores = np.array([1.0, -1.0 + 2e-12, 2.0, 3.0, 0.5])
    group = group_for(5)
    for variant in ("unstudentized", "studentized"):
        result = run_test_from_scores(scores, 0.1, group, variant)
        assert result.p_value == 0.25, f"{variant} p {result.p_value} != 0.25"


@criterion(3, "closed-form CI vs inversion oracle", limit_seconds=30)
def test_criterion_3_interval_matches_inversion(ci_instances):
    for inst in ci_instances:
        grid, keep, closed = inst["grid"], inst["keep"], inst["closed"]
        step = grid[1] - grid[0]
        oracle = interval_by_inversion(
            inst["estimates"], inst["contrast"], inst["alpha"], inst["group"]
        )
        if np.isfinite(closed.lower):
            assert abs(closed.lower - oracle.lower) <= step
        else:
            assert oracle.lower == grid[0]
        if np.isfinite(closed.upper):
            assert abs(closed.upper - oracle.upper) <= step
        else:
            assert oracle.upper == grid[-1]

        # direct vs piecewise profile evaluation at 200 points
        inputs = inst["inputs"]
        for lam in np.linspace(inputs.lambda0 - 5.0, inputs.lambda0 + 5.0, 200):
            pvalue_profile(inputs, lam)  # asserts that the two forms agree
        assert keep is not None  # scan shared with criterion 4


@criterion(4, "profile unimodality and convex non-rejection set")
def test_criterion_4_unimodality_and_contiguity(ci_instances):
    for inst in ci_instances:
        keep = inst["keep"]
        idx = np.flatnonzero(keep)
        assert idx.size > 0
        assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1)), (
            "non-rejection set has gaps"
        )
        assert pvalue_profile(inst["inputs"], inst["inputs"].lambda0) == 1.0


@criterion(5, "trivial power boundary at q=4 / q=5")
def test_criterion_5_trivial_power_boundary():
    spec4 = DgpSpec(sizes=(30,) * 4, beta=(0.2, 0.4), sigma=(1.0, 1.5, 2.0, 2.5), seed=41)
    null4 = size_study(spec4, [0.0, 1.0], 0.10, 500)
    assert null4.rate == 0.0, f"q=4 at alpha=0.10 rejected {null4.rejections} times"

    spec5 = DgpSpec(sizes=(30,) * 5, beta=(0.0, 0.0), sigma=(1.0,) * 5, seed=42)
    strong = power_study(spec5, [0.0, 1.0], 8.0, 0.10, 200)
    assert float(np.min(strong.p_values)) == 2.0 / 32.0  # = 0.0625
    assert strong.rate > 0.0


@criterion(6, "size control under 1:10 variance heterogeneity", limit_seconds=180)
def test_criterion_6_size_under_heterogeneity():
    spec = DgpSpec(
        sizes=(50,) * 8,
        beta=(0.5, 1.0),
        sigma=tuple(np.linspace(1.0, 10.0, 8)),
        rho=0.5,
        seed=60,
    )
    report = size_study(spec, [0.0, 1.0], 0.05, 2000)
    mcse = np.sqrt(0.05 * 0.95 / 2000)  # about 0.0049
    assert report.rate <= 0.05 + 2.0 * mcse, (
        f"empirical size {report.rate:.4f} exceeds 0.05 + 2*{mcse:.4f}"
    )


@criterion(7, "block plan fidelity")
def test_criterion_7_block_plans():
    expected = {8: 328, 10: 263, 16: 164}
    for q, base in expected.items():
        plan = plan_blocks(2631, q)
        assert plan.base_size == base
        assert plan.last_size == 2631 - base * (q - 1)


@criterion(8, "scalar Wald consistency", limit_seconds=60)
def test_criterion_8_wald_matches_unstudentized():
    for i in range(100):
        q = 4 + i % 7
        d = 1 + i % 3
        data, c, lam = make_instance(8800 + i, q, d)
        group = group_for(q)
        scores = scores_from_estimates(
            fit_per_cluster(data), LinearHypothesis(contrast=c, value=lam), "root_n"
        )
        plain = run_test_from_scores(scores, 0.1, group)
        wald = run_wald_test(
            data, MultiHypothesis(restriction=c.reshape(1, -1), values=[lam]), 0.1, group
        )
        assert wald.p_value == plain.p_value, (
            f"instance {i}: wald p {wald.p_value} != scalar p {plain.p_value}"
        )


@criterion(8, "scalar Wald consistency on a constructed near-tie")
def test_criterion_8_constructed_near_tie():
    # intercept-only clusters of sizes 1, 1, 1, 1, 5 (n = 9) give root-n
    # scores within an ulp of [1, -1 + eps, 2, 3, 0.5], the near-tie of
    # criterion 2; snapping on the squared Wald scale would give 6/32
    sizes = (1, 1, 1, 1, 5)
    labels = np.repeat(np.arange(5), sizes)
    group = group_for(5)
    for eps in (1.5e-12, 2e-12):
        y = np.repeat(np.array([1.0, -1.0 + eps, 2.0, 3.0, 0.5]) / 3.0, sizes)
        data = canonicalize(labels, y, np.ones((9, 1)))
        scores = scores_from_estimates(
            fit_per_cluster(data), LinearHypothesis(contrast=[1.0], value=0.0), "root_n"
        )
        plain = run_test_from_scores(scores, 0.1, group)
        wald = run_wald_test(data, MultiHypothesis(restriction=[[1.0]], values=[0.0]), 0.1, group)
        assert plain.p_value == wald.p_value == 0.25, (
            f"eps {eps}: wald p {wald.p_value}, scalar p {plain.p_value}"
        )


@criterion(9, "sampled-group convergence and reproducibility")
def test_criterion_9_sampled_group(tmp_path, capsys):
    data, c, lam = make_instance(103, q=12, d=2)
    h = LinearHypothesis(contrast=c, value=lam)
    exact = run_test(data, h, 0.05, SignGroup(12, "exhaustive"))
    sampled = run_test(data, h, 0.05, SignGroup(12, "sampled", seed=5, draws=1000))
    p = exact.p_value
    assert 0.01 < p < 0.99, f"pick a less extreme instance (p={p})"
    tol = 3.0 * np.sqrt(p * (1.0 - p) / 1000.0)
    assert abs(sampled.p_value - p) <= tol, (
        f"sampled p {sampled.p_value} vs exhaustive {p}, tolerance {tol:.4f}"
    )

    # byte-identical CLI reports for a fixed sampled-mode seed
    path = tmp_path / "q12.csv"
    labels = data.row_labels()
    lines = ["cluster,y,x1,x2"]
    for i in range(data.n):
        lines.append(
            f"{labels[i]},{float(data.outcomes[i])!r},"
            f"{float(data.covariates[i, 0])!r},{float(data.covariates[i, 1])!r}"
        )
    path.write_text("\n".join(lines) + "\n")
    argv = [
        "test",
        "--input", str(path),
        "--cluster", "cluster",
        "--outcome", "y",
        "--covariates", "x1,x2",
        "--contrast", f"{float(c[0])!r},{float(c[1])!r}",
        "--null", repr(float(lam)),
        "--group-mode", "sampled",
        "--draws", "1000",
        "--seed", "5",
    ]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert first == second and first, "reports must be byte-identical"
    doc = json.loads(first)
    assert doc["result"]["group"]["seed"] == 5
