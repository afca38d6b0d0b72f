"""The fast demos run to completion as scripts."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_depth_camera.py", "03_fft_baseline.py",
                                  "04_planner_oracle.py"])
def test_demo_exits_zero(name, tmp_path):
    # a copy of the script writes its images under tmp_path/out, not demos/out
    script = shutil.copy(ROOT / "demos" / name, tmp_path)
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, capture_output=True,
                          text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0, proc.stderr
