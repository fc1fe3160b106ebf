"""Smoke test of the experiment scripts: each runs to exit 0 in a fresh
directory and writes the files it announces."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script -> files it writes into its working directory
SCRIPTS = {
    "field_demo.py": ["field_demo.stwm", "field_demo.csv"],
    "holder_slopes.py": [],
    "temporal_matern_study.py": ["temporal_matern_study.csv"],
}


@pytest.mark.parametrize("script", list(SCRIPTS))
def test_script_runs(tmp_path, script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], cwd=tmp_path,
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    for name in SCRIPTS[script]:
        assert (tmp_path / name).stat().st_size > 0
