"""The golden report corpus: every case's stdout, stderr and exit code, byte for byte.

The expected bytes in ``tests/golden/expected`` were written by
``tests/golden/regen.py``; this test only compares.  A change that moves
a report byte on purpose reruns the script and names each changed case
in CHANGES.md.
"""

import os
import subprocess
import sys

import pytest

from tests.golden.regen import (
    HERE,
    case_env,
    expected,
    load_manifest,
    make_workdir,
    outputs,
    run_case,
)

MANIFEST = load_manifest()
CASES = {case["name"]: case for case in MANIFEST["cases"]}
SRC = HERE.parents[1] / "src"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return make_workdir(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", CASES)
def test_case_matches_golden(name, workdir):
    case = CASES[name]
    assert run_case(case, workdir) == expected(case)


@pytest.mark.parametrize("name", MANIFEST["subprocess"])
def test_program_entry_matches_golden(name, workdir):
    case = CASES[name]
    env = case_env(case, os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-m", "artcluster.cli", *case["argv"]],
                          cwd=workdir, env=env, capture_output=True, timeout=120)
    got = outputs(proc.returncode, proc.stdout, proc.stderr, case, workdir)
    assert got == expected(case)
