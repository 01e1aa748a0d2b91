"""The README's documented API: its quick start runs and its names exist."""

import ast
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import artcluster
import artcluster.cli
from artcluster import DgpSpec, SignGroup, simulation
from artcluster.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def block_after(marker: str, fence: str) -> str:
    """The first ``fence`` code block after ``marker`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(marker):]
    start = section.index(fence) + len(fence)
    return section[start:section.index("```", start)]


def quick_start() -> str:
    """The first python block after the "Library quick start" heading."""
    return block_after("## Library quick start", "```python\n")


def test_quick_start_runs(capsys):
    rng = np.random.default_rng(5)
    labels = np.repeat(np.arange(6), 10)
    Z = np.column_stack([np.ones(60), rng.standard_normal(60)])
    y = Z @ np.array([1.0, 0.5]) + rng.standard_normal(60)
    namespace = {"labels": labels, "y": y, "Z": Z}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    assert isinstance(namespace["result"], artcluster.TestResult)
    assert isinstance(namespace["ci"], artcluster.ConfidenceInterval)
    assert capsys.readouterr().out.count("\n") == 2


def test_test_result_sentence_names_its_fields():
    text = " ".join(README.read_text(encoding="utf-8").split())
    documented = re.search(r"`TestResult\((.*?)\)`", text).group(1).split(", ")
    fields = dataclasses.fields(artcluster.TestResult)
    assert [item.partition("=")[0] for item in documented] == [f.name for f in fields]
    for item, field in zip(documented, fields):
        default = item.partition("=")[2]
        assert (ast.literal_eval(default) if default else dataclasses.MISSING) == field.default


def test_reject_sentence_states_the_rule():
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert re.search(r"derives `result.reject` as `(.*?)`", text).group(1) == "p_value <= alpha"


def test_every_exported_name_resolves():
    missing = [name for name in artcluster.__all__ if not hasattr(artcluster, name)]
    assert missing == []


# The public surface, sorted: a deletion or a new export shows in this list's diff.
PUBLIC_NAMES = [
    "ArtClusterError", "BlockPlan", "ClusterEstimates", "ClusteredDataset",
    "ConfidenceInterval", "DegenerateGrouping", "DegenerateVariance", "DgpSpec",
    "EmptyCluster", "GridTooCoarse", "GroupTooLarge", "IdentificationFailure",
    "IntervalInputs", "LinearHypothesis", "MissingColumn", "MonteCarloReport",
    "MultiHypothesis", "NonFiniteValue", "ParseError", "SignGroup", "SingularSigma",
    "TestResult", "TooFewClusters", "TooFewObservations", "WidthMismatch", "blockify",
    "canonicalize", "critical_value", "enumerate_group", "fit_per_cluster", "generate",
    "interval", "interval_by_inversion", "interval_inputs", "merge_clusters", "plan_blocks",
    "power_study", "run_test", "run_wald_test", "scores_from_estimates", "size_study",
]


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert artcluster.__all__ == PUBLIC_NAMES


def test_simulate_spec_runs(tmp_path, capsys):
    spec = json.loads(block_after("A `simulate` spec looks like", "```json\n"))
    path = tmp_path / "study.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["simulate", "--spec", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["replications"] == spec["replications"]


class _Accepted(Exception):
    """Raised in place of the allocation a guard let through."""


def _accepted(call) -> bool:
    try:
        call()
    except _Accepted:
        return True
    except ValueError:
        return False
    return True


def _largest_accepted(accepts) -> int:
    lo, hi = 2**10, 2**11  # every guard takes 1024
    while accepts(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    return lo


def _refuse(*args):
    raise _Accepted


def _blocks_accepted(q) -> bool:
    try:
        return main(["blocks", "--n", str(10**9), "--q", str(q)]) != 1
    except _Accepted:
        return True


# Each limit the README states, with a probe that runs the guard on one value.
README_LIMITS = [
    ("about 21.4 million draws at q = 20",
     lambda b: _accepted(lambda: SignGroup(20, "sampled", seed=0, draws=b))),
    ("about 5.0 million replications at q = 8",
     lambda r: _accepted(lambda: simulation.check_study(8, 0.05, r))),
    ("about 16.8 million rows at d_z = 1",
     lambda n: _accepted(lambda: simulation.generate(
         DgpSpec(sizes=(n // 2, n - n // 2), beta=(0.0,), sigma=(1.0, 1.0)), 0))),
    ("about 1.6 million blocks at n = 10^9", _blocks_accepted),
]


@pytest.mark.parametrize("phrase, accepts", README_LIMITS, ids=["draws", "replications",
                                                                 "sizes", "blocks"])
def test_stated_limits_match_the_guards(monkeypatch, capsys, phrase, accepts):
    """Each stated limit is the largest value its guard lets through, rounded as stated."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert phrase in text
    monkeypatch.setattr(simulation, "_draw", _refuse)
    monkeypatch.setattr(artcluster.cli, "plan_blocks", _refuse)
    stated = re.search(r"about ([\d.]+) million", phrase).group(1)
    decimals = len(stated.partition(".")[2])
    assert round(_largest_accepted(accepts) / 1e6, decimals) == float(stated)
