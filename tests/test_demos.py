"""Every walkthrough under `demos/` runs to completion from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo, tmp_path):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
