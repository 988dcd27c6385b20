import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_without_warnings(demo, tmp_path):
    # each demo runs as a script with every warning an error; it runs from a
    # copy in tmp_path, since a demo may write files next to itself
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = {key: value for key, value in os.environ.items() if key != "SOLITONLAB_OUT"}
    env["PYTHONPATH"] = str(REPO / "src")
    done = subprocess.run([sys.executable, "-W", "error", str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
