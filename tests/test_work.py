"""What the reports and the sweep checks build, and how often.

Each critical point builds its polygon and Hessian on first read, and each
chart its well-conditioned relabeling once.  Counters wrap
``geometry.tangential_polygon`` and ``slope_space.build_chart`` in every
``polyslope`` module that holds them.  The routes these shortcuts replace
stay here as oracles: the family rows against the critical points' own
indices, the shared chart against a fresh ``build_chart`` per relabeling.
"""

import math
import sys

import numpy as np
import pytest

from polyslope import (
    ExceptionalSpace,
    SlopeSystem,
    build_chart,
    morse_index_eigen,
    tangential_critical_points,
)
from polyslope.geometry import tangential_polygon
from polyslope.randomgen import random_slope_system, trial_rng
from polyslope.report import family_report, slopes_report
from polyslope.sweeps import CHECKS
from polyslope.tangential import hessian_formula, well_conditioned_chart
from polyslope.tolerances import DEFAULT_TOL

from families import FAMILY_END, FAMILY_START


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls to build_chart and tangential_polygon, by name."""
    counts = {}
    for original in (build_chart, tangential_polygon):
        name = original.__name__
        counts[name] = 0

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name == "polyslope" or module_name.startswith("polyslope."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    return counts


SLOPES_7 = [10.0, 62.0, 131.0, 175.0, 228.0, 281.0, 333.0]


def test_slopes_report_builds_one_chart_and_two_polygons(calls):
    report = slopes_report(SLOPES_7)
    assert not report["critical"]["exceptional"]
    assert calls["build_chart"] <= 2
    assert calls["tangential_polygon"] == 2


def test_family_report_builds_no_polygon(calls):
    report = family_report(FAMILY_START, FAMILY_END, 11)
    assert any(row.get("critical_points") == 2 for row in report["rows"])
    assert calls["tangential_polygon"] == 0


@pytest.mark.parametrize(
    "name",
    ["critical_gradient", "hessian_difference", "hessian_determinant",
     "index_agreement", "convex_indices"],
)
def test_index_hessian_and_gradient_checks_build_no_polygon(calls, name):
    index, check = next((i, c) for i, (n, c) in enumerate(CHECKS) if n == name)
    for trial in range(20):
        assert check(trial_rng(1, index, trial), (4, 9), DEFAULT_TOL) is not None
    assert calls["tangential_polygon"] == 0
    assert calls["build_chart"] == 20


def test_polygon_and_hessian_on_first_read():
    chart = build_chart(SlopeSystem.from_degrees(SLOPES_7))
    for point in tangential_critical_points(chart):
        assert "polygon" not in vars(point) and "hessian" not in vars(point)
        polygon = point.polygon
        assert polygon is point.polygon
        expected = tangential_polygon(chart.system.angles, point.incenter, point.inradius)
        assert np.array_equal(polygon.vertices, expected.vertices)
        assert point.hessian is point.hessian
        assert np.array_equal(point.hessian, hessian_formula(chart.unit_perimeters, point.inradius))


def reference_well_conditioned(system):
    """A fresh chart for each cyclic relabeling; the smallest max|p| / |p_1| wins."""
    charts = [build_chart(system.rotated(k)) for k in range(system.n)]
    ratios = [np.max(np.abs(c.unit_perimeters)) / abs(c.unit_perimeters[0]) for c in charts]
    return charts[int(np.argmin(ratios))]


def test_well_conditioned_chart_is_shared_and_equal_to_reference():
    rng = np.random.default_rng(41)
    for _ in range(60):
        system = random_slope_system(rng, int(rng.integers(3, 15)))
        chart = build_chart(system)
        shared = chart.well_conditioned
        assert shared is chart.well_conditioned
        expected = reference_well_conditioned(system)
        assert np.array_equal(shared.system.angles, expected.system.angles)
        assert np.array_equal(shared.unit_perimeters, expected.unit_perimeters)
        assert np.array_equal(shared.area_constants, expected.area_constants)
        assert shared.perimeter_sum == expected.perimeter_sum
        assert shared.half_turns == expected.half_turns
        assert not shared.unit_perimeters.flags.writeable
        public = well_conditioned_chart(system)
        assert np.array_equal(public.unit_perimeters, expected.unit_perimeters)


def check_family_rows(report):
    """Each row against the indices and area of its own critical points."""
    checked = 0
    for row in report["rows"]:
        if row["status"] != "ok":
            continue
        chart = build_chart(SlopeSystem.from_degrees(row["angles_deg"]))
        points = tangential_critical_points(chart)
        if isinstance(points, ExceptionalSpace):
            assert row["exceptional"] and "indices" not in row
            continue
        assert not row["exceptional"]
        assert row["indices"] == [morse_index_eigen(p).index_eigen for p in points]
        assert row["area_sign"] == int(math.copysign(1.0, points[0].area))
        checked += 1
    return checked


def test_family_rows_match_critical_points():
    assert check_family_rows(family_report(FAMILY_START, FAMILY_END, 11)) > 0
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 10))
        start = rng.uniform(0.0, 360.0, n).tolist()
        end = rng.uniform(0.0, 360.0, n).tolist()
        checked += check_family_rows(family_report(start, end, 7))
    assert checked > 500
