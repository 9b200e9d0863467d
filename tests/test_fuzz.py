"""Unfiltered fuzz tier: uniformly random angles reach every report.

3000 angle lists come from one seeded generator, n = integers(3, 15) and
angles uniform in [0, 360) degrees, with no separation or conditioning
filter: the first 1500 are slope systems, the other 1500 the vertex angles
of cyclic polygons of radius 1.  Every input must give a report that passes
the command line's cross-checks, or one of its documented input errors.
The same draws check the closed forms of the tangential polygons against
their geometric oracles, the radii reconstruction and tangent-line intersections.
With 1500 lists that put lines within 1e-8 to 1e-3 degrees of parallel,
they also check the stacked kernels bit for bit against one point at a time.
"""

import functools
import math

import numpy as np
import pytest

from polyslope import cli
from polyslope import (
    CoincidentVertices,
    CyclicPolygon,
    DegenerateCritical,
    NotCritical,
    PolygonChain,
    PolyslopeError,
    SlopeSystem,
    area_morse_index_numeric,
    build_chart,
    critical_gradient_norm,
    dual_polygon,
    oriented_area,
    polygon_from_radii,
    signed_perimeter,
    tangential_critical_points,
    winding_number,
)
from polyslope.geometry import left_normals, polygon_from_lines, tangential_polygon
from polyslope.report import cyclic_report, slopes_report
from polyslope.tangential import (
    COMPLEX_STEP,
    constrained_perimeter,
    hessian_errors,
    hessian_fd_comparisons,
)

from area_chart import chain_area_gradient, chain_area_hessian, closure_jacobian

COUNT = 1500


def fuzz_angles():
    rng = np.random.default_rng(123)
    for _ in range(2 * COUNT):
        n = int(rng.integers(3, 15))
        yield rng.uniform(0.0, 360.0, n).tolist()


ANGLES = list(fuzz_angles())


def near_parallel_angles():
    """Angle lists in which each of 1 to n - 1 lines copies another line's
    angle, reversed or not, plus a gap log-uniform in [1e-8, 1e-3] degrees."""
    rng = np.random.default_rng(5)
    for _ in range(COUNT):
        n = int(rng.integers(3, 15))
        angles = rng.uniform(0.0, 360.0, n)
        for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False):
            gap = 10.0 ** rng.uniform(-8.0, -3.0) * rng.choice((-1.0, 1.0))
            angles[i] = angles[int(rng.integers(0, n))] + 180.0 * int(rng.integers(0, 2)) + gap
        yield angles.tolist()


NEAR_PARALLEL = list(near_parallel_angles())


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
        for point in tangential_critical_points(chart):
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


def outcome(route, *args):
    """What ``route`` returns, or the type and text of the library error it raises."""
    try:
        return route(*args)
    except PolyslopeError as exc:
        return f"{type(exc).__name__}: {exc}"


def stacked_points(angles):
    """Each critical point's gradient norm, bound and vertices as the report
    gives them, from one stack per quantity."""
    points = slopes_report(angles)["critical"]["points"]
    return [(p["gradient_norm"], p["gradient_bound"], p["vertices"]) for p in points]


def one_point_at_a_time(angles):
    """The same, one point at a time in the order the report once took: the
    gradient, by the one-row call and by a complex stack with a scalar branch,
    then the polygon by ``tangential_polygon``, whose checks raise."""
    chart = build_chart(SlopeSystem.from_degrees(angles))
    points = tangential_critical_points(chart)
    if not points:
        return []
    conditioned = chart.well_conditioned
    target = math.copysign(1.0, conditioned.perimeter_sum)
    rows = []
    for point in points:
        norm, bound = critical_gradient_norm(point)
        free = point.inradius + 1j * COMPLEX_STEP * np.eye(chart.n - 3)
        grad = constrained_perimeter(conditioned, free, target, point.inradius).imag
        assert norm == float(np.linalg.norm(grad / COMPLEX_STEP))
        polygon = tangential_polygon(chart.system.angles, point.incenter, point.inradius)
        rows.append((norm, bound, polygon.vertices.tolist()))
    return rows


@pytest.mark.parametrize("inputs", [ANGLES[:COUNT], NEAR_PARALLEL], ids=["fuzz", "near_parallel"])
def test_stacked_points_equal_one_point_at_a_time(inputs):
    # Bit for bit, signed zeros and errors included (the first polygon to
    # fail raises): the reprs of the floats are equal.
    reports = 0
    for angles in inputs:
        stacked = outcome(stacked_points, angles)
        assert repr(stacked) == repr(outcome(one_point_at_a_time, angles)), angles
        reports += isinstance(stacked, list) and len(stacked) == 2
    assert reports > 800


@pytest.mark.parametrize("inputs", [ANGLES[:COUNT], NEAR_PARALLEL], ids=["fuzz", "near_parallel"])
def test_stacked_hessians_equal_one_point_at_a_time(inputs):
    points_checked = 0
    for angles in inputs:
        try:
            points = tangential_critical_points(build_chart(SlopeSystem.from_degrees(angles)))
        except cli.INPUT_ERRORS:
            continue
        if not points or points[0].n < 4:
            continue
        closed, exact = hessian_fd_comparisons(points)
        for k, point in enumerate(points):
            single_closed, single_exact = hessian_fd_comparisons((point,))
            assert np.array_equal(closed[k], single_closed[0]), angles
            assert np.array_equal(exact[k], single_exact[0]), angles
        singles = [hessian_errors((point,))[0] for point in points]
        assert hessian_errors(points) == singles, angles
        points_checked += 2
    assert points_checked > 1500


def test_clustered_slopes_raise_coincident_vertices():
    # Five lines within 3e-5 degrees of parallel: vertices 2 and 3 of the
    # tangential polygons lie closer than COINCIDENT times their diameter.
    angles = [
        422.7802954517007,
        422.7802826944762,
        422.78030479097896,
        422.7802766411455,
        242.78030749507516,
    ]
    with pytest.raises(CoincidentVertices, match="^vertices 2 and 3 coincide$"):
        slopes_report(angles)


def lstsq_area_index(cyclic):
    """The area index with least-squares multipliers from ``np.linalg.lstsq``
    and the null-space basis from its own SVD: the reference of
    :func:`area_morse_index_numeric`, whose one SVD gives both."""
    polygon = PolygonChain(np.column_stack([np.cos(cyclic.phis), np.sin(cyclic.phis)]))
    lengths, thetas = polygon.edge_lengths, polygon.edge_angles
    jac = closure_jacobian(lengths, thetas)[:, 1:]
    _, s, vh = np.linalg.svd(jac)
    basis = vh[np.count_nonzero(s > s[0] * np.finfo(float).eps * max(jac.shape)):].T
    grad = chain_area_gradient(lengths, thetas)[1:]
    residual = float(np.linalg.norm(basis.T @ grad))
    if residual > 1e-8 * max(1.0, float(np.sum(lengths)) ** 2):
        raise NotCritical("criticality test")
    if basis.shape[1] == 0:
        return 0
    multipliers, *_ = np.linalg.lstsq(jac.T, grad, rcond=None)
    w = lengths[:, None] * np.column_stack([np.cos(thetas), np.sin(thetas)])
    lagrangian = chain_area_hessian(lengths, thetas)[1:, 1:] + np.diag(w[1:] @ multipliers)
    eigenvalues = np.linalg.eigvalsh(basis.T @ lagrangian @ basis)
    bound = 500.0 * cyclic.n * np.finfo(float).eps * float(np.max(np.abs(lagrangian)))
    if np.any(np.abs(eigenvalues) <= bound):
        raise DegenerateCritical("roundoff bound")
    return int(np.count_nonzero(eigenvalues < 0))


@pytest.mark.parametrize("inputs", [ANGLES[COUNT:], NEAR_PARALLEL], ids=["fuzz", "near_parallel"])
def test_area_index_equals_lstsq_reference(inputs):
    indices = 0
    for phis in inputs:
        try:
            cyclic = CyclicPolygon.from_degrees(1.0, phis)
        except cli.INPUT_ERRORS:
            continue
        assert area_morse_index_numeric(cyclic) == lstsq_area_index(cyclic), phis
        indices += 1
    assert indices > 900
