"""The README's documented API: its quick start runs and its names exist."""

from pathlib import Path

import numpy as np

import artcluster

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The first python block after the "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


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
