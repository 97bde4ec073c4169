"""Every demo script runs to completion against the source tree; the demos
whose output is a computed result print exactly their committed golden."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the Euler factors and the congruence depths, pinned byte for byte
GOLDENS = {"04_euler_factors.py": "demo_04_euler_factors.out", "05_congruence_depths.py": "demo_05_congruence_depths.out"}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    if demo.name in GOLDENS:
        assert proc.stdout == (ROOT / "tests" / "data" / GOLDENS[demo.name]).read_text()
