"""Smoke tests for the example scripts: each runs to completion in a fresh
interpreter. make_eval_golden.py is left out because it rewrites the
committed golden file."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["signature_table.py", "--max-twice-j", "3"],
        ["gauge_flow_demo.py", "--samples", "5"],
        ["rep_digests.py"],
    ],
)
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
