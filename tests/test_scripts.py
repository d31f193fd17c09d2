"""The studies under ``scripts/`` run from the repository and print."""

import hashlib
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


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / script), *args],
        capture_output=True,
        env=env,
        cwd=REPO_ROOT,
    )


@pytest.mark.parametrize(
    "script, args", RUNS, ids=[" ".join([script, *args]) for script, args in RUNS]
)
def test_script_runs(script, args):
    result = run_script(script, args)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.strip()


def test_genus_family_scan_bytes():
    """The default scan prints the CSC solve's s and certificate over
    genera 2 to 8; its bytes are pinned."""
    result = run_script("genus_family_scan.py", [])
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "fbf939fa2aaf8f0586a55d0d6d01cfd28da97cfc19b5cdacbe2d6df0a445aca6"
    )
