"""The bundled scripts run to completion against the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "args",
    [
        ["scripts/run_example.py", "--quiet"],
        ["scripts/sweep_random_soundness.py", "--systems", "20",
         "--expect", "d2941d3d89d5bea7cea09cc9eb3a7eddc58fbf9756786c963cb32f4f9381891a"],
        ["scripts/sweep_random_soundness.py", "--resources", "3", "--systems", "20",
         "--expect", "79f335094514b704671a38b4c4f508c011160084d7b16ef176cad393f78359ab"],
        ["scripts/check_constraint_validity.py", "--seeds", "20"],
        ["scripts/fuzz_parsers.py", "--mutations", "2000",
         "--expect", "4facd71cba90d3622d4f81948455ac6af6c681fb0d0fcf484cd8afd842ea0bac"],
        ["scripts/trace_digest.py", "--seeds", "20"],
        ["scripts/import_time.py", "--runs", "2"],
        ["scripts/gc_share.py", "--workload", "search", "--seconds", "0.2"],
        ["scripts/check_sweep_exact.py", "--systems", "20"],
    ],
)
def test_script_exits_cleanly(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
