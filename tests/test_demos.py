"""The demo scripts run to completion against the current API."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ElementTree

import pytest

import polyslope

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(polyslope.__file__)))

# 05_render_gallery.py writes files; test_render_gallery runs it into tmp_path.
DEMOS = [
    "01_slope_space.py",
    "02_perimeter_critical_points.py",
    "03_cyclic_duality.py",
    "04_exceptional_family.py",
]


def run_demo(name, *args):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name), *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    result = run_demo(name)
    assert result.returncode == 0, result.stderr


def test_render_gallery(tmp_path):
    result = run_demo("05_render_gallery.py", str(tmp_path))
    assert result.returncode == 0, result.stderr
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == [
        "pentagon_critical_points.svg",
        "pentagram_duality.svg",
        "saddleish_critical_points.svg",
        "wavy_cyclic_duality.svg",
    ]
    for name in written:
        root = ElementTree.parse(tmp_path / name).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg", name
