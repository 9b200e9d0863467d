"""Unfiltered fuzz tier: uniformly random angles reach every report.

3000 angle lists come from one seeded generator, n = integers(3, 15) and
angles uniform in [0, 360) degrees, with no separation or conditioning
filter: the first 1500 are slope systems, the other 1500 the vertex angles
of cyclic polygons of radius 1.  Every input must give a report that passes
the command line's cross-checks, or one of its documented input errors.
The same draws check the closed forms of the tangential polygons against
their geometric oracles, the radii reconstruction and tangent-line intersections.
With 1500 lists that put lines within 1e-8 to 1e-3 degrees of parallel,
they also check the stacked kernels bit for bit against one point at a time,
and each charted system's index against the inertia of its area form on the
edge-space tangent.  The cyclic area index is held to the references of
``area_chart`` on the fuzz polygons and near-bifurcating ones.
"""

import functools

import numpy as np
import pytest

from polyslope import cli
from polyslope import (
    CyclicPolygon,
    DegenerateCritical,
    InputError,
    NotCritical,
    ParallelLines,
    PolygonChain,
    PolyslopeError,
    SlopeSystem,
    area_morse_index_numeric,
    build_chart,
    critical_gradient_norm,
    dual_polygon,
    morse_index_eigen,
    oriented_area,
    polygon_from_radii,
    signed_perimeter,
    tangential_critical_points,
    winding_number,
)
from polyslope import tangential
from polyslope.geometry import (
    diameters,
    left_normals,
    polygon_from_lines,
    tangential_polygons,
)
from polyslope.report import cyclic_report, slopes_report
from polyslope.tangential import (
    edge_hessians,
    hessian_det_identities,
    hessian_formula,
    tangential_residual,
)
from polyslope.tolerances import DEFAULT_TOL

from area_chart import (
    chain_area_gradient,
    chain_area_hessian,
    closed_form_area_eigenvalues,
    closed_form_criticality,
    closure_jacobian,
    reference_area_eigenvalues,
)
from families import near_bifurcation_phis

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
        except InputError:
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
        except InputError:
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
    """Each critical point's eigenvalues, indices, edge-space checks and
    vertices as the report gives them, from one stack per quantity and one
    evaluation of the checks."""
    points = slopes_report(angles)["critical"]["points"]
    fields = (
        "eigenvalues", "index_eigen", "index_formula",
        "gradient_norm", "gradient_bound", "area_error", "area_bound",
    )
    return [(*(p[field] for field in fields), p["vertices"]) for p in points]


def one_point_at_a_time(angles):
    """The same, one point at a time: the eigenvalues of the point's own
    Hessian; the indices of the one-point call, whose count is taken at the
    point's own polygon, where the report takes the other point's complement;
    the polygon by a one-row ``tangential_polygons``, unchecked as the report's
    stack is; then the edge-space checks on that point's own polygon and
    inradius, by the one-point call too."""
    chart = build_chart(SlopeSystem.from_degrees(angles))
    points = tangential_critical_points(chart)
    if not points:
        return []
    rows = []
    for point in points:
        hessian = hessian_formula(chart.unit_perimeters, point.inradius)
        eigenvalues = np.linalg.eigvalsh(hessian).tolist()
        vertices = tangential_polygons(chart.system.angles, [point.incenter], [point.inradius])[0]
        report = morse_index_eigen(point)
        index, formula = report.index_eigen, report.index_formula
        residual = tangential_residual(chart, vertices, point.inradius)
        assert critical_gradient_norm(point) == residual[:2]
        rows.append((eigenvalues, index, formula, *residual, vertices.tolist()))
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
        except InputError:
            continue
        if not points or points[0].n < 4:
            continue
        closed, edge = edge_hessians(points)
        for k, point in enumerate(points):
            single_closed, single_edge = edge_hessians((point,))
            assert np.array_equal(closed[k], single_closed[0]), angles
            assert np.array_equal(edge[k], single_edge[0]), angles
        lhs = [lhs for lhs, _ in hessian_det_identities(points)]
        dets = [point.inradius ** (point.n - 3) * np.linalg.det(point.hessian) for point in points]
        assert lhs == dets, angles
        points_checked += 2
    assert points_checked > 1500


def test_edge_space_inertia_equals_sign_count(monkeypatch):
    # The report's index is the inertia of the area form -Q / r on
    # T = ker U ∩ (Q l)^perp at the edge lengths l of its vertices, which
    # reads no p: it equals the sign count of the chart's p, each eigenvalue
    # outside the bound 500 n eps max|Q| / |r| of zero, so that the fewest
    # and the most negative eigenvalues that roundoff allows are one count.
    counts, edge_space_form = [], tangential._edge_space_form

    def counted_form(*args):
        form, bound = edge_space_form(*args)
        counts.append(np.searchsorted(np.linalg.eigvalsh(form), (-bound, 0.0, bound)))
        return form, bound

    monkeypatch.setattr(tangential, "_edge_space_form", counted_form)
    reports = 0
    for angles in ANGLES[:COUNT] + NEAR_PARALLEL:
        try:
            report = slopes_report(angles)
        except InputError:
            continue
        chart = report["chart"]
        for point in report["critical"]["points"]:
            expected = sign_count_index(
                chart["unit_perimeters"], chart["perimeter_sum"], point["inradius"]
            )
            assert point["index_eigen"] == expected, angles
            assert point["agreement"], angles
        reports += bool(report["critical"]["points"])
    assert reports > 2000
    assert len(counts) == reports
    assert all(fewest == most for fewest, _, most in counts)


# An edge of at most this fraction of its polygon's diameter is zero to
# working precision.
ZERO_EDGE = 1e-12


def short_edges(report) -> bool:
    """Whether the first tangential polygon of a slopes report has an edge
    of at most ZERO_EDGE times its diameter: zero to working precision."""
    vertices = np.array(report["critical"]["points"][0]["vertices"])
    lengths = np.hypot(*(np.roll(vertices, -1, axis=0) - vertices).T)
    return bool(lengths.min() <= ZERO_EDGE * diameters(vertices))


def test_clustered_slopes_get_a_report():
    # Five lines within 3e-5 degrees of parallel: vertices 2 and 3 of the
    # tangential polygons lie closer than ZERO_EDGE times their diameter,
    # an edge that is zero to working precision.  It is an edge all the
    # same: both points pass their gradient, area and index checks.
    angles = [
        422.7802954517007,
        422.7802826944762,
        422.78030479097896,
        422.7802766411455,
        242.78030749507516,
    ]
    points = slopes_report(angles)["critical"]["points"]
    assert len(points) == 2
    vertices = np.array(points[0]["vertices"])
    assert np.hypot(*(vertices[3] - vertices[2])) <= ZERO_EDGE * diameters(vertices)
    for point in points:
        assert point["gradient_norm"] <= point["gradient_bound"]
        assert point["area_error"] <= point["area_bound"]
        assert point["agreement"] and point["index_eigen"] == point["index_formula"]


@pytest.mark.parametrize("scale, least", [(1.0, 80), (1e-3, 150)])
def test_slope_lists_with_zero_edges_get_reports(scale, least):
    # Lines clustered about one direction or its opposite give tangential
    # polygons with an edge of at most ZERO_EDGE times their diameter: 87
    # of the fuzz lists at scale 1 and 160 at 1e-3.  Each gets a report that
    # passes every cross-check, and no fuzz list gets an input error but
    # parallel lines.
    tol = DEFAULT_TOL if scale == 1.0 else DEFAULT_TOL.scaled(scale)
    short = 0
    for angles in ANGLES[:COUNT] + NEAR_PARALLEL:
        try:
            report = slopes_report(angles, tol)
        except ParallelLines:
            continue
        if report["critical"]["points"] and short_edges(report):
            assert cli._cross_check_failures(report) == [], angles
            short += 1
    assert short > least


def lstsq_area_index(cyclic):
    """The area index with least-squares multipliers from ``np.linalg.lstsq``
    of the chord-closed chain and the null-space basis from its own SVD: a
    reference of :func:`area_morse_index_numeric`, whose multiplier is in
    closed form."""
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
        except InputError:
            continue
        assert area_morse_index_numeric(cyclic) == lstsq_area_index(cyclic), phis
        indices += 1
    assert indices > 900


def near_bifurcation_sets():
    """Vertex angles of near-bifurcating cyclic polygons, ten in each band of
    |B| / sum|tan alpha|: roots to working precision, inside the default
    band and just outside it."""
    rng = np.random.default_rng(33)
    bands = ((0.0, 0.0), (1e-12, 1e-10), (1e-9, 1e-7))
    return [
        near_bifurcation_phis(rng, int(rng.integers(4, 8)), *band)
        for band in bands
        for _ in range(10)
    ]


AREA_SETS = pytest.mark.parametrize(
    ("inputs", "kinds"),
    [
        (lambda: ANGLES[COUNT:], {0, 1}),
        (near_bifurcation_sets, {1, "DegenerateCritical"}),
        (lambda: [[10.0, 130.0, 250.0]], {0}),
    ],
    ids=["fuzz", "near_bifurcation", "triangle"],
)


@AREA_SETS
def test_area_index_equals_full_hessian_reference(monkeypatch, inputs, kinds):
    # The Lagrangian assembled in place gives the projected eigenvalues of
    # the closed-form reference, assembled from full matrices, bit for bit,
    # and where either raises DegenerateCritical, the same error; the
    # reference's criticality test passes.  ``kinds`` are the outcomes the
    # set must reach: eigvalsh calls per index (none for a triangle) or the
    # error's name.
    seen, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(eigvalsh(a)) or seen[-1])
    outcomes = set()
    for phis in inputs():
        try:
            cyclic = CyclicPolygon.from_degrees(1.0, phis)
        except InputError:
            continue
        try:
            expected, _ = closed_form_area_eigenvalues(cyclic.phis)
        except DegenerateCritical as exc:
            with pytest.raises(type(exc)) as raised:
                area_morse_index_numeric(cyclic)
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc), phis
            outcomes.add(type(exc).__name__)
            continue
        seen.clear()
        index = area_morse_index_numeric(cyclic)
        assert (seen[0] if seen else np.zeros(0)).tobytes() == expected.tobytes(), phis
        assert index == np.count_nonzero(expected < 0)
        outcomes.add(len(seen))
    assert outcomes == kinds


@AREA_SETS
def test_area_index_near_chord_closed_reference(monkeypatch, inputs, kinds):
    # Against the chord-closed chain with least-squares multipliers, a
    # different Lagrangian with the same restriction to the closure space:
    # the same index or DegenerateCritical as it and as lstsq_area_index,
    # and eigenvalues within 8 n eps max|L| of its own.
    seen, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(eigvalsh(a)) or seen[-1])
    outcomes = set()
    for phis in inputs():
        try:
            cyclic = CyclicPolygon.from_degrees(1.0, phis)
        except InputError:
            continue
        try:
            expected, unit = reference_area_eigenvalues(cyclic.phis)
        except DegenerateCritical as exc:
            for route in (area_morse_index_numeric, lstsq_area_index):
                with pytest.raises(type(exc)):
                    route(cyclic)
            outcomes.add(type(exc).__name__)
            continue
        seen.clear()
        index = area_morse_index_numeric(cyclic)
        calls = len(seen)
        program = seen[0] if seen else np.zeros(0)
        assert index == lstsq_area_index(cyclic) == np.count_nonzero(expected < 0), phis
        assert np.all(np.abs(program - expected) <= 8.0 * unit), phis
        outcomes.add(calls)
    assert outcomes == kinds


@pytest.mark.parametrize(
    "inputs", [lambda: ANGLES[COUNT:], near_bifurcation_sets], ids=["fuzz", "near_bifurcation"]
)
def test_polygons_on_a_circle_pass_the_criticality_test(inputs):
    # A polygon inscribed in a circle is a critical point of its area, so
    # area_morse_index_numeric does not test it.  The oracle's test, the
    # area gradient on the closure space against 1e-8 max(1, perimeter**2),
    # holds at the unit-circle polygon of every input, its residual pure
    # roundoff (at most 5.1e-9 of the bound), and fails wherever vertex i
    # is moved off the circle to radius 1 + i / 1000 (a triangle is rigid).
    worst, polygons = 0.0, 0
    for phis in inputs():
        try:
            cyclic = CyclicPolygon.from_degrees(1.0, phis)
        except InputError:
            continue
        vertices = np.column_stack([np.cos(cyclic.phis), np.sin(cyclic.phis)])
        residual, bound = closed_form_criticality(vertices)
        worst = max(worst, residual / bound)
        vertices *= 1.0 + 1e-3 * np.arange(cyclic.n)[:, None]
        residual, bound = closed_form_criticality(vertices)
        assert residual > bound or cyclic.n == 3, phis
        polygons += 1
    assert polygons >= 30 and worst <= 1e-6
