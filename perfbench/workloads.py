"""Seeded inputs, op lists and expected results of the four workloads.

Each workload writes its input files into a work directory and returns
a fixed list of ops; one pass runs that list once.  The program only
ever sees the files written here.  The same seed gives the same files
and the same expected results, which come from :mod:`oracle`.

Why each workload exists (also recorded in ``BENCHMARK.json``):

``tall``
    100k rows, 12 clusters: ingest dominates and the sign group is small
    (2^12).  The ``--blocks 8,10,16`` sweep re-parses the CSV once per
    block count and uses a sampled group at Q=16.
``wide``
    2000 rows, 20 clusters: building and sweeping the 2^20 sign group
    dominates; the sampled op draws a million Philox sign vectors, so
    enumeration and sampling are measured apart.
``simulate``
    A 2000-replication size study at q=8: per-cluster fits and data
    generation dominate and the group has only 256 rows.
``inversion``
    The grid-inversion oracle at q=10 with the default 4001-point grid:
    the only workload where the single-null test engine is the cost.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import oracle

NAMES = ("tall", "wide", "simulate", "inversion")

INVERSION_INSTANCES = 4
INVERSION_Q = 10
INVERSION_ALPHA = 0.05


@dataclass
class Op:
    """One call of the program and the fields its result must carry.

    ``args`` are the CLI arguments after ``artcluster`` (the report is
    written to ``output``), or for the inversion workload the instance
    index as a one-element list.
    """

    kind: str
    args: list
    output: str
    expected: object


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(workload)])


def _write_csv(path: str, columns: dict) -> None:
    """Write float columns with ``repr`` so that parsing is exact."""
    names = list(columns)
    cells = [
        col if col.dtype.kind in "OU" else [repr(v) for v in col.tolist()]
        for col in columns.values()
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _clustered_rows(rng, n, q, d, label_fmt):
    """Rows in shuffled cluster order with heteroskedastic cluster noise."""
    labels = np.array([label_fmt.format(k) for k in rng.permutation(q)], dtype=object)
    row_cluster = rng.integers(0, q, size=n)
    X = np.round(rng.standard_normal((n, d)), 6)
    beta = np.round(rng.standard_normal(d + 1), 3)
    scale = 1.0 + 3.0 * rng.random(q)
    effect = rng.standard_normal(q)
    noise = scale[row_cluster] * (0.5 * effect[row_cluster] + rng.standard_normal(n))
    y = np.round(beta[0] + X @ beta[1:] + noise, 6)
    return labels[row_cluster], y, X


def _cluster_fits(labels, y, X):
    """Per-cluster fits in canonical order, and the x1 contrast."""
    perm, sizes = oracle.canonical_order(labels.tolist())
    Z = np.column_stack([np.ones(y.shape[0]), X])[perm]
    contrast = np.zeros(Z.shape[1])
    contrast[1] = 1.0
    return oracle.fit(y[perm], Z, sizes), sizes, contrast


def _base_args(path, covariates):
    return ["--input", path, "--outcome", "y", "--covariates", covariates,
            "--intercept", "--coef", "x1"]


def tall(seed: int, workdir: str) -> list:
    rng = _rng(seed, "tall")
    n, q = 100_000, 12
    labels, y, X = _clustered_rows(rng, n, q, 3, "region-{:02d}")
    t = rng.permutation(n).astype(np.float64)
    path = os.path.join(workdir, "tall.csv")
    _write_csv(path, {"g": labels, "t": t, "y": y, "x1": X[:, 0], "x2": X[:, 1], "x3": X[:, 2]})

    betas, sizes, contrast = _cluster_fits(labels, y, X)
    group = oracle.signs(q)
    sweep = []
    for blocks in (8, 10, 16):
        order, block_sizes = oracle.block_layout(t, blocks)
        Z = np.column_stack([np.ones(n), X])[order]
        block_betas = oracle.fit(y[order], Z, block_sizes)
        sweep.append(
            oracle.expect_test(block_betas, block_sizes, contrast, 0.0, 0.05, oracle.signs(blocks))
        )
    out = os.path.join(workdir, "{}.json")
    base = _base_args(path, "x1,x2,x3")
    return [
        Op("test", ["test", *base, "--cluster", "g"], out.format("test"),
           oracle.expect_test(betas, sizes, contrast, 0.0, 0.05, group)),
        Op("ci", ["ci", *base, "--cluster", "g"], out.format("ci"),
           oracle.expect_ci(betas, sizes, contrast, 0.05, group)),
        Op("sweep", ["test", *base, "--blocks", "8,10,16", "--time", "t"],
           out.format("sweep"), sweep),
    ]


def wide(seed: int, workdir: str) -> list:
    rng = _rng(seed, "wide")
    n, q = 2000, 20
    labels, y, X = _clustered_rows(rng, n, q, 2, "c{:02d}")
    path = os.path.join(workdir, "wide.csv")
    _write_csv(path, {"g": labels, "y": y, "x1": X[:, 0], "x2": X[:, 1]})

    betas, sizes, contrast = _cluster_fits(labels, y, X)
    full = oracle.signs(q, "exhaustive")
    sampled = oracle.signs(q, "sampled", draws=1_000_000, seed=7)
    out = os.path.join(workdir, "{}.json")
    base = [*_base_args(path, "x1,x2"), "--cluster", "g"]
    exhaustive = ["--group-mode", "exhaustive"]
    return [
        Op("test", ["test", *base, *exhaustive], out.format("test"),
           oracle.expect_test(betas, sizes, contrast, 0.0, 0.05, full)),
        Op("ci", ["ci", *base, *exhaustive], out.format("ci"),
           oracle.expect_ci(betas, sizes, contrast, 0.05, full)),
        Op("sampled_test",
           ["test", *base, "--group-mode", "sampled", "--draws", "1000000", "--seed", "7"],
           out.format("sampled_test"),
           oracle.expect_test(betas, sizes, contrast, 0.0, 0.05, sampled)),
    ]


def simulate(seed: int, workdir: str) -> list:
    rng = _rng(seed, "simulate")
    spec = {
        "dgp": {
            "sizes": [50] * 8,
            "beta": [0.5, 1.0],
            "sigma": np.linspace(1.0, 10.0, 8).tolist(),
            "rho": 0.5,
            "covariate_law": "normal",
            "seed": int(rng.integers(0, 2**31)),
        },
        "study": "size",
        "contrast": [0.0, 1.0],
        "alpha": 0.05,
        "replications": 2000,
    }
    path = os.path.join(workdir, "study.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
    return [
        Op("simulate", ["simulate", "--spec", path], os.path.join(workdir, "simulate.json"),
           {"rejections": oracle.size_study_rejections(spec)})
    ]


def inversion(seed: int, workdir: str) -> list:
    """Instances go to ``instances.npz``; ops name an instance index."""
    rng = _rng(seed, "inversion")
    arrays, ops = {}, []
    contrast = np.array([0.0, 1.0])
    group = oracle.signs(INVERSION_Q)
    for k in range(INVERSION_INSTANCES):
        sizes = rng.integers(20, 61, size=INVERSION_Q)
        n = int(sizes.sum())
        Z = np.column_stack([np.ones(n), rng.standard_normal(n)])
        scale = np.repeat(1.0 + 2.0 * rng.random(INVERSION_Q), sizes)
        y = Z @ np.array([0.5, 1.0]) + scale * rng.standard_normal(n)
        arrays[f"labels{k}"] = np.repeat(np.arange(1, INVERSION_Q + 1), sizes)
        arrays[f"y{k}"], arrays[f"Z{k}"] = y, Z
        betas = oracle.fit(y, Z, sizes)
        expected = oracle.expect_ci(betas, sizes, contrast, INVERSION_ALPHA, group)
        expected["step"] = oracle.inversion_grid_step(betas, sizes, contrast)
        ops.append(Op("inversion", [k], "", expected))
    np.savez(os.path.join(workdir, "instances.npz"), **arrays)
    return ops


PREPARE = {"tall": tall, "wide": wide, "simulate": simulate, "inversion": inversion}


# ------------------------------------------------------------------ #
# Output checks
# ------------------------------------------------------------------ #


def _endpoint(value) -> float:
    return {"-inf": -math.inf, "+inf": math.inf}.get(value, value)


def reported_fields(kind: str, report: dict):
    """The result fields an op of ``kind`` is checked on."""
    result = report["result"]
    if kind in ("test", "sampled_test"):
        return {key: result[key] for key in ("statistic", "critical_value", "p_value")}
    if kind == "sweep":
        return [reported_fields("test", {"result": run}) for run in result["by_blocks"]]
    if kind == "ci":
        return {"lower": _endpoint(result["lower"]), "upper": _endpoint(result["upper"])}
    if kind == "simulate":
        return {"rejections": result["rejections"]}
    raise ValueError(f"unknown op kind {kind!r}")


def check_report(op: Op, text: bytes) -> str | None:
    """None when the report carries the expected fields, else why not."""
    try:
        got = reported_fields(op.kind, json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        return f"{op.kind}: unreadable report ({exc!r})"
    if got != op.expected:
        return f"{op.kind}: reported {got} but expected {op.expected}"
    return None


def check_inversion(op: Op, lower: float, upper: float) -> str | None:
    """Each grid endpoint must lie within one step of the closed form."""
    exp = op.expected
    if abs(lower - exp["lower"]) <= exp["step"] and abs(upper - exp["upper"]) <= exp["step"]:
        return None
    return (
        f"inversion {op.args[0]}: grid interval [{lower}, {upper}] is more than one "
        f"step {exp['step']} from the closed form [{exp['lower']}, {exp['upper']}]"
    )
