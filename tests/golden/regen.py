"""The golden report corpus: run its cases, and rewrite its expected outputs.

``manifest.json`` lists each case's argv and, under ``env``, the
``ARTCLUSTER_SEED`` it runs with (unset when absent).  A case runs
through ``artcluster.cli.main`` in a directory that holds a copy of
``inputs/``, so the paths a report echoes are the relative ones of the
manifest.  ``expected/`` holds, per case, the exact stdout and stderr
bytes and the exit code, plus any file the case writes (``files``).

``tests/test_golden.py`` compares every case with these files and never
rewrites them.  After a deliberate change of report bytes, run

    python tests/golden/regen.py

from the repository root, and list each changed case in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
SEED_VARIABLE = "ARTCLUSTER_SEED"


def load_manifest() -> dict:
    return json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))


def make_workdir(root: Path) -> Path:
    """``root`` with a copy of the corpus inputs; cases run and write there."""
    shutil.copytree(HERE / "inputs", root / "inputs")
    return root


def case_env(case: dict, environ) -> dict:
    """``environ`` with the case's ``ARTCLUSTER_SEED`` set, or removed when it sets none."""
    env = {key: value for key, value in environ.items() if key != SEED_VARIABLE}
    env.update(case.get("env", {}))
    return env


def outputs(code: int, stdout: bytes, stderr: bytes, case: dict, workdir: Path) -> dict:
    """A finished case's outputs by file suffix: stdout, stderr, code and each written file."""
    got = {"stdout": stdout, "stderr": stderr, "code": f"{code}\n".encode()}
    for name in case.get("files", ()):
        got[name] = (workdir / name).read_bytes()
    return got


def run_case(case: dict, workdir: Path) -> dict:
    """Run one case through ``cli.main`` in ``workdir``; a warning is an error, as in tier-1."""
    from artcluster.cli import main

    cwd, environ = os.getcwd(), dict(os.environ)
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(workdir)
        os.environ.clear()
        os.environ.update(case_env(case, environ))
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(case["argv"])
    finally:
        os.environ.clear()
        os.environ.update(environ)
        os.chdir(cwd)
    return outputs(code, out.getvalue().encode(), err.getvalue().encode(), case, workdir)


def expected(case: dict) -> dict:
    """The committed outputs of a case, keyed as :func:`outputs` keys them."""
    keys = ("stdout", "stderr", "code", *case.get("files", ()))
    return {key: (EXPECTED / f"{case['name']}.{key}").read_bytes() for key in keys}


def regenerate(workdir: Path) -> None:
    if EXPECTED.exists():
        shutil.rmtree(EXPECTED)
    EXPECTED.mkdir()
    for case in load_manifest()["cases"]:
        for key, data in run_case(case, workdir).items():
            (EXPECTED / f"{case['name']}.{key}").write_bytes(data)


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(HERE.parents[1] / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        regenerate(make_workdir(Path(scratch)))
