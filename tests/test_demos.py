"""The demo scripts run to completion against the current API."""

import os
import subprocess
import sys

import pytest

import polyslope

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(polyslope.__file__)))

# 05_render_gallery.py is left out: it writes its SVGs into demos/.
DEMOS = [
    "01_slope_space.py",
    "02_perimeter_critical_points.py",
    "03_cyclic_duality.py",
    "04_exceptional_family.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
