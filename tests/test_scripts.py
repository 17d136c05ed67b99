"""Smoke test: each script in scripts/ runs to completion on a small case."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args",
    [
        ("error_sweep.py", ["--dim", "3", "--quad-order", "6", "--n", "2000"]),
        ("threshold_rate_sweep.py", ["--n-max", "10", "--sweep-dim", "5", "--out", "{tmp}"]),
    ],
)
def test_script_exits_zero(script, args, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)]
        + [a.format(tmp=tmp_path) for a in args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
