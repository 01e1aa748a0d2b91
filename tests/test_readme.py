"""The README's documented API: its quick start runs and its names exist."""

import json
from pathlib import Path

import numpy as np

import artcluster
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


def test_every_exported_name_resolves():
    missing = [name for name in artcluster.__all__ if not hasattr(artcluster, name)]
    assert missing == []


def test_simulate_spec_runs(tmp_path, capsys):
    spec = json.loads(block_after("A `simulate` spec looks like", "```json\n"))
    path = tmp_path / "study.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["simulate", "--spec", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["replications"] == spec["replications"]
