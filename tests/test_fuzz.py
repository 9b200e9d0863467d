"""Unfiltered fuzz tier: uniformly random angles reach every report.

3000 angle lists come from one seeded generator, n = integers(3, 15) and
angles uniform in [0, 360) degrees, with no separation or conditioning
filter: the first 1500 are slope systems, the other 1500 the vertex angles
of cyclic polygons of radius 1.  Every input must give a report that passes
the command line's cross-checks, or one of its documented input errors.
The same draws check the closed forms of the tangential polygons against
their geometric oracles, the radii reconstruction and tangent-line intersections.
"""

import functools

import numpy as np

from polyslope import cli
from polyslope import (
    CyclicPolygon,
    ExceptionalSpace,
    SlopeSystem,
    build_chart,
    dual_polygon,
    oriented_area,
    polygon_from_radii,
    signed_perimeter,
    tangential_critical_points,
    winding_number,
)
from polyslope.geometry import left_normals, polygon_from_lines
from polyslope.report import cyclic_report, slopes_report

COUNT = 1500


def fuzz_angles():
    rng = np.random.default_rng(123)
    for _ in range(2 * COUNT):
        n = int(rng.integers(3, 15))
        yield rng.uniform(0.0, 360.0, n).tolist()


ANGLES = list(fuzz_angles())


def sign_count_index(p, perimeter_sum, inradius):
    """Negative eigenvalues of -(D + t t^T / p_1) / r, from the signs of p."""
    negatives = sum(x < 0 for x in p[1:]) + (perimeter_sum > 0) - (p[0] > 0)
    return negatives if inradius < 0 else len(p) - 1 - negatives


def run_fuzz(make_report, inputs):
    """Reports of the inputs that give one, and a message for each fault."""
    reports, problems = [], []
    for i, angles in inputs:
        try:
            report = make_report(angles)
        except cli.INPUT_ERRORS:
            continue
        except Exception as exc:  # any other error is a fault of the library
            problems.append(f"input {i}: {type(exc).__name__}: {exc}")
            continue
        failures = cli._cross_check_failures(report)
        if failures:
            problems.append(f"input {i}: {failures}")
        reports.append((i, report))
    return reports, problems


def test_slopes_fuzz():
    reports, problems = run_fuzz(slopes_report, enumerate(ANGLES[:COUNT]))
    for i, report in reports:
        chart = report["chart"]
        for point in report["critical"]["points"]:
            expected = sign_count_index(
                chart["unit_perimeters"], chart["perimeter_sum"], point["inradius"]
            )
            if point["index_eigen"] != expected:
                problems.append(f"input {i}: index {point['index_eigen']}, sign count {expected}")
    assert problems == []
    assert len(reports) == COUNT


@functools.cache
def cyclic_fuzz_reports():
    inputs = enumerate(ANGLES[COUNT:], start=COUNT)
    return run_fuzz(lambda phis: cyclic_report(1.0, phis), inputs)


def test_cyclic_fuzz():
    reports, problems = cyclic_fuzz_reports()
    assert problems == []
    assert len(reports) == COUNT


def test_cyclic_fuzz_moved_circle():
    # The same polygons about a center at distance 1e0..1e6 in a random
    # direction keep their indices: the dual is measured about the center.
    rng = np.random.default_rng(124)
    origin_reports, _ = cyclic_fuzz_reports()
    problems = []
    for i, report in origin_reports:
        size = 10.0 ** rng.uniform(0.0, 6.0)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        center = (size * np.cos(angle), size * np.sin(angle))
        try:
            moved = cyclic_report(1.0, ANGLES[i], center)
        except Exception as exc:
            problems.append(f"input {i} at {center}: {type(exc).__name__}: {exc}")
            continue
        if moved["indices"] != report["indices"] or cli._cross_check_failures(moved):
            problems.append(f"input {i} at {center}: {moved['indices']} != {report['indices']}")
    assert problems == []


def test_reduction_is_idempotent():
    # The stored angles build the same system back, bit for bit, and so does
    # every relabelling undone.
    for angles in ANGLES[:COUNT]:
        system = SlopeSystem.from_degrees(angles)
        expected = system.angles.tobytes()
        assert SlopeSystem(system.angles).angles.tobytes() == expected, angles
        for k in range(system.n):
            assert system.rotated(k).rotated(-k).angles.tobytes() == expected, angles


def test_critical_points_match_reconstruction():
    # Each closed-form field against its geometric oracle: the radii
    # reconstruction at r_i = r, its shoelace area, signed perimeter and
    # winding number about the incenter.
    points = 0
    for angles in ANGLES[:COUNT]:
        try:
            chart = build_chart(SlopeSystem.from_degrees(angles))
        except cli.INPUT_ERRORS:
            continue
        critical = tangential_critical_points(chart)
        if isinstance(critical, ExceptionalSpace):
            continue
        for point in critical:
            rebuilt = polygon_from_radii(chart, np.full(chart.n - 2, point.inradius))
            gap = np.max(np.abs(rebuilt.vertices - point.polygon.vertices))
            assert gap <= 1e-11 * rebuilt.diameter, angles
            perimeter = signed_perimeter(rebuilt, chart.system)
            assert abs(perimeter - point.perimeter) <= 1e-11 * abs(point.perimeter), angles
            assert abs(oriented_area(rebuilt) - point.area) <= 1e-10, angles
            assert winding_number(rebuilt, point.incenter) == chart.winding, angles
            points += 1
    assert points == 2 * COUNT


def test_dual_matches_tangent_line_intersections():
    for phis in ANGLES[COUNT:]:
        cyclic = CyclicPolygon.from_degrees(1.0, phis)
        dual = dual_polygon(cyclic)
        angles = dual.slopes.angles
        offsets = left_normals(angles) @ cyclic.center - cyclic.radius
        expected = polygon_from_lines(angles, offsets)
        gap = np.max(np.abs(dual.polygon.vertices - expected.vertices))
        assert gap <= 1e-11 * expected.diameter, phis
