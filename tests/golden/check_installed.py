"""Run the manifest's ``subprocess`` cases through the installed ``artcluster`` script.

After ``python -m pip install .``, run from the repository root

    python tests/golden/check_installed.py

Each case runs as ``artcluster <argv>`` in a directory holding a copy of
``inputs/``, without ``PYTHONPATH``, so the package and the script come
from the install.  Its stdout, stderr and exit code must equal the
committed files in ``expected/``.  Exits 1 when any case differs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from regen import case_env, expected, load_manifest, make_workdir, outputs


def main() -> int:
    script = shutil.which("artcluster")
    if script is None:
        print("check_installed: no artcluster script on PATH", file=sys.stderr)
        return 1
    manifest = load_manifest()
    cases = {case["name"]: case for case in manifest["cases"]}
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        workdir = make_workdir(Path(scratch))
        for name in manifest["subprocess"]:
            case = cases[name]
            env = case_env(case, os.environ)
            env.pop("PYTHONPATH", None)
            proc = subprocess.run([script, *case["argv"]], cwd=workdir, env=env,
                                  capture_output=True, timeout=120)
            got = outputs(proc.returncode, proc.stdout, proc.stderr, case, workdir)
            want = expected(case)
            differ = sorted(key for key in want if got[key] != want[key])
            print(f"{name}: {'differs in ' + ', '.join(differ) if differ else 'ok'}")
            failed += bool(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
