"""The studies under ``scripts/`` run from the repository and print."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    ("genus_family_scan.py", ["--help"]),
    ("genus_family_scan.py", ["--max-genus", "3"]),
    ("homeo_key_table.py", ["--help"]),
    ("homeo_key_table.py", ["--max-entry", "3"]),
]


@pytest.mark.parametrize(
    "script, args", RUNS, ids=[" ".join([script, *args]) for script, args in RUNS]
)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
