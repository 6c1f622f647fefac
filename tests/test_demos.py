"""The demo scripts run as a user runs them: `PYTHONPATH=src python3 demos/<script>`.

`run_all.py` regenerates the five scenarios and compares them byte for byte
with `demos/scenarios/out/`; `cube_extremals.py` asserts the area and
perimeter records for n = 4, 5, 6.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_all.py", "cube_extremals.py",
                                    "covering_walkthrough.py"])
def test_demo_script_exits_zero(script):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
