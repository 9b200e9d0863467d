"""Tests for the radii chart on the space of polygons with fixed slopes."""

import dataclasses
import math

import numpy as np
import pytest

from polyslope import (
    ParallelLines,
    PolygonChain,
    ReconstructionDegenerate,
    SlopeMismatch,
    SlopeSystem,
    build_chart,
    decomposition_polygons,
    normalized_coordinates,
    oriented_area,
    polygon_from_radii,
    radii_of_polygon,
    signed_perimeter,
    topology_report,
    tritangent_circle,
    unit_triangle,
)
from polyslope.geometry import (
    edge_lengths_along,
    edge_offsets,
    left_normal,
    left_normals,
    line_gap,
)
from polyslope.randomgen import random_radii, random_slope_system
from polyslope.slope_space import _line_offsets

from test_geometry import EPS, outcome_text, reference_intersect_lines, reference_line_vertices

EQUILATERAL = SlopeSystem.from_degrees([90, 210, 330])


def random_triple(rng):
    while True:
        angles = rng.uniform(0.0, 2 * math.pi, 3)
        lines = np.sort(angles % math.pi)
        gaps = np.diff(np.concatenate([lines, [lines[0] + math.pi]]))
        if np.min(gaps) > math.radians(5):
            return tuple(angles.tolist())


class TestUnitTriangle:
    def test_equilateral_perimeter(self):
        _, p = unit_triangle(*EQUILATERAL.angles)
        assert p == pytest.approx(6 * math.sqrt(3))

    def test_reversed_directions_flip_sign(self):
        reversed_system = SlopeSystem.from_degrees([330, 210, 90])
        _, p = unit_triangle(*reversed_system.angles)
        assert p == pytest.approx(-6 * math.sqrt(3))

    def test_perimeter_equals_twice_area(self):
        # Signed-perimeter route against the shoelace route.
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b, c = random_triple(rng)
            triangle, p = unit_triangle(a, b, c)
            assert p == pytest.approx(2 * oriented_area(triangle), abs=1e-10 * abs(p))

    def test_inscribed_circle_is_unit_at_origin(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = random_triple(rng)
            triangle, _ = unit_triangle(a, b, c)
            for slope, vertex in zip((a, b, c), triangle.vertices):
                # Edge line offset against the origin-centered circle.
                assert float(left_normal(slope) @ vertex) == pytest.approx(-1.0, abs=1e-9)

    def test_parallel_triple_rejected(self):
        with pytest.raises(ParallelLines):
            unit_triangle(0.0, math.pi, 0.5 * math.pi)


class TestTritangentCircle:
    def test_exactly_one_candidate_qualifies(self):
        # Exhaustive check of the four tritangent circles of random triples.
        rng = np.random.default_rng(4)
        triples, singles = [], []
        for _ in range(100):
            angles = random_triple(rng)
            offsets = tuple(rng.uniform(-2, 2, 3))
            normals = np.stack([left_normal(t) for t in angles])
            qualifying = 0
            for pattern in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)):
                matrix = np.column_stack([normals, -np.asarray(pattern, float)])
                try:
                    cx, cy, rho = np.linalg.solve(matrix, np.asarray(offsets))
                except np.linalg.LinAlgError:
                    continue
                sides = normals @ np.array([cx, cy]) - offsets
                if np.all(sides > 1e-12) or np.all(sides < -1e-12):
                    qualifying += 1
            assert qualifying == 1
            center, radius = tritangent_circle(angles, offsets)
            assert center.shape == (2,) and isinstance(radius, float)
            sides = normals @ center - offsets
            assert np.max(np.abs(sides - radius)) < 1e-9
            triples.append((angles, offsets))
            singles.append((*center, radius))
        # One stacked call gives each triple's circle bit for bit.
        centers, radii = tritangent_circle(*map(np.array, zip(*triples)))
        assert np.array_equal(np.column_stack((centers, radii)), np.array(singles))

    def test_cramer_rule_matches_a_linear_solve(self):
        # The closed form against LAPACK's solve of the same system, on
        # random triples, with two antiparallel lines, and with two lines
        # near codirected, where the solve loses what the product form of
        # the determinant keeps: relative to the solution's size, within
        # 1e-9 on the first two and 1e-6 on the last.
        rng = np.random.default_rng(31)
        for case, rtol in ((0, 1e-9), (1, 1e-9), (2, 1e-6)):
            angles = rng.uniform(0.0, 2 * math.pi, (2000, 3))
            offsets = rng.uniform(-2.0, 2.0, (2000, 3))
            if case == 1:
                angles[:, 1] = (angles[:, 0] + math.pi) % (2 * math.pi)
            if case == 2:
                angles[:, 1] = angles[:, 0] + rng.uniform(-1e-3, 1e-3, 2000)
            matrix = np.stack((-np.sin(angles), np.cos(angles), -np.ones_like(angles)), -1)
            expected = np.linalg.solve(matrix, offsets[..., None])[..., 0]
            centers, radii = tritangent_circle(angles, offsets)
            solution = np.column_stack((centers, radii))
            scale = np.max(np.abs(expected), axis=-1, keepdims=True)
            assert np.all(np.abs(solution - expected) <= rtol * scale), case

    def test_codirected_lines_and_other_shapes_raise(self):
        # Two codirected lines: the determinant's product has a zero factor.
        for angles in ((0.3, 0.3, 2.0), (1.0, 4.0, 1.0), (5.0, 5.0, 5.0)):
            with pytest.raises(ReconstructionDegenerate, match="no one-side tritangent"):
                tritangent_circle(angles, (0.0, 1.0, -1.0))
        stacked = np.array([[0.1, 2.0, 4.0], [0.3, 0.3, 2.0]])
        with pytest.raises(ReconstructionDegenerate, match="no one-side tritangent"):
            tritangent_circle(stacked, np.zeros((2, 3)))
        for angles in ((0.1, 2.0), (0.1, 2.0, 4.0, 5.0), [[0.1, 2.0, 4.0, 5.0]]):
            with pytest.raises(ValueError, match="angles of three lines"):
                tritangent_circle(angles, np.zeros(np.shape(angles)))


class TestBuildChart:
    def test_single_triangle_chart(self):
        chart = build_chart(EQUILATERAL)
        assert chart.unit_perimeters.shape == (1,)
        assert chart.perimeter_sum == pytest.approx(6 * math.sqrt(3))

    def test_signature_matches_turning(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(3, 13))
            chart = build_chart(random_slope_system(rng, n))
            positive = int(np.count_nonzero(chart.unit_perimeters > 0))
            assert positive == chart.half_turns - 1

    def test_area_constants_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            chart = build_chart(random_slope_system(rng, int(rng.integers(3, 10))))
            assert np.all(chart.area_constants > 0)

    def test_closed_forms_match_unit_triangles(self):
        # Reference route: p = 2 * oriented area of the unit-inradius triangle
        # and c = |area| / (height of its apex above e_1) ** 2.
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 200:
            n = int(rng.integers(3, 15))
            angles = rng.uniform(0.0, 2 * math.pi, n)
            lines = np.sort(angles % math.pi)
            if np.min(np.diff(np.concatenate([lines, [lines[0] + math.pi]]))) < 1e-3:
                continue
            system = SlopeSystem.from_angles(angles)
            chart = build_chart(system)
            first = system.angles[0]
            for i in range(n - 2):
                triangle, _ = unit_triangle(first, system.angles[i + 1], system.angles[i + 2])
                area = oriented_area(triangle)
                height = abs(float(left_normal(first) @ triangle.vertices[2]) + 1.0)
                assert chart.unit_perimeters[i] == pytest.approx(2 * area, rel=1e-9)
                assert chart.area_constants[i] == pytest.approx(abs(area) / height**2, rel=1e-9)
            checked += 1

    def test_pairwise_parallel_rejected(self):
        with pytest.raises(ParallelLines):
            build_chart(SlopeSystem.from_degrees([0, 90, 180, 270]))


class TestReconstruction:
    def test_unit_radius_reproduces_unit_triangle(self):
        chart = build_chart(EQUILATERAL)
        rebuilt = polygon_from_radii(chart, [1.0])
        reference, _ = unit_triangle(*EQUILATERAL.angles)
        shift = rebuilt.vertices[0] - reference.vertices[0]
        assert np.allclose(rebuilt.vertices, reference.vertices + shift, atol=1e-12)

    def test_equal_radii_give_tangential_polygon(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(4, 9))
            chart = build_chart(random_slope_system(rng, n))
            rho = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
            polygon = polygon_from_radii(chart, np.full(n - 2, rho))
            center = rho * left_normal(chart.system.angles[0])
            for i, normal in enumerate(left_normals(chart.system.angles)):
                offset = float(normal @ polygon.vertices[i])
                assert float(normal @ center) - offset == pytest.approx(rho, abs=1e-9)

    def test_area_and_perimeter_sums(self):
        # Shoelace and edge-length sums computed independently of the chart.
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(3, 10))
            chart = build_chart(random_slope_system(rng, n))
            radii = random_radii(rng, n - 2)
            polygon = polygon_from_radii(chart, radii)
            p = chart.unit_perimeters
            area_scale = max(1.0, float(np.sum(np.abs(p) * radii**2)))
            perim_scale = max(1.0, float(np.sum(np.abs(p * radii))))
            assert abs(oriented_area(polygon) - 0.5 * float(np.sum(p * radii**2))) <= (
                1e-10 * area_scale
            )
            assert abs(
                signed_perimeter(polygon, chart.system) - float(np.sum(p * radii))
            ) <= 1e-10 * perim_scale

    def test_zero_radius_makes_lines_concurrent(self):
        rng = np.random.default_rng(10)
        chart = build_chart(random_slope_system(rng, 5))
        radii = np.array([0.8, 0.0, 0.6])
        polygon = polygon_from_radii(chart, radii)
        # Triangle 2 uses edges (1, 3, 4); zero radius collapses its circle to
        # the common point of the three lines.
        angles = chart.system.angles
        offsets = [float(left_normal(angles[i]) @ polygon.vertices[i]) for i in range(5)]
        meet = reference_intersect_lines(angles[0], offsets[0], angles[2], offsets[2])
        assert float(left_normal(angles[3]) @ meet) == pytest.approx(offsets[3], abs=1e-9)

    def test_radii_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(3, 11))
            chart = build_chart(random_slope_system(rng, n))
            radii = random_radii(rng, n - 2)
            polygon = polygon_from_radii(chart, radii)
            recovered = radii_of_polygon(chart, polygon)
            assert np.allclose(recovered, radii, atol=1e-10 * max(1.0, np.max(np.abs(radii))))

    def test_radii_scale_with_dilation(self):
        rng = np.random.default_rng(12)
        chart = build_chart(random_slope_system(rng, 6))
        radii = random_radii(rng, 4)
        polygon = polygon_from_radii(chart, radii)
        scaled = PolygonChain(2.5 * polygon.vertices)
        assert np.allclose(radii_of_polygon(chart, scaled), 2.5 * radii, atol=1e-9)


class TestAdditivity:
    def test_area_and_perimeter_add_over_decomposition(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(4, 11))
            chart = build_chart(random_slope_system(rng, n))
            radii = random_radii(rng, n - 2)
            polygon = polygon_from_radii(chart, radii)
            triangles = [PolygonChain(v) for v in decomposition_polygons(chart, polygon)]
            area_sum = sum(oriented_area(t) for t in triangles)
            perim_sum = 0.0
            for i, t in enumerate(triangles):
                triple = SlopeSystem(chart.system.angles[[0, i + 1, i + 2]])
                perim_sum += signed_perimeter(t, triple)
            scale = max(1.0, polygon.diameter**2)
            assert abs(area_sum - oriented_area(polygon)) <= 1e-10 * scale
            assert abs(perim_sum - signed_perimeter(polygon, chart.system)) <= 1e-10 * scale


class TestNormalizedCoordinates:
    def test_quadratic_form_reproduces_area(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(3, 11))
            chart = build_chart(random_slope_system(rng, n))
            radii = random_radii(rng, n - 2)
            polygon = polygon_from_radii(chart, radii)
            coords = normalized_coordinates(chart, polygon)
            mask = chart.positive_mask
            value = float(np.sum(coords.x[mask] ** 2) - np.sum(coords.x[~mask] ** 2))
            scale = max(1.0, polygon.diameter**2)
            assert abs(value - oriented_area(polygon)) <= 1e-9 * scale

    def test_zero_area_balances_blocks(self):
        rng = np.random.default_rng(15)
        while True:
            chart = build_chart(random_slope_system(rng, 4))
            p = chart.unit_perimeters
            if p[0] * p[1] < 0:
                break
        r0 = 0.9
        radii = np.array([r0, math.sqrt(-p[0] / p[1]) * r0])
        polygon = polygon_from_radii(chart, radii)
        assert oriented_area(polygon) == pytest.approx(0.0, abs=1e-12)
        coords = normalized_coordinates(chart, polygon)
        mask = chart.positive_mask
        assert float(np.sum(coords.x[mask] ** 2)) == pytest.approx(
            float(np.sum(coords.x[~mask] ** 2))
        )

    def test_coordinates_scale_with_dilation(self):
        rng = np.random.default_rng(16)
        chart = build_chart(random_slope_system(rng, 7))
        radii = random_radii(rng, 5)
        polygon = polygon_from_radii(chart, radii)
        base = normalized_coordinates(chart, polygon).x
        scaled = normalized_coordinates(chart, PolygonChain(3.0 * polygon.vertices)).x
        assert np.allclose(scaled, 3.0 * base, atol=1e-9 * max(1.0, np.max(np.abs(base))))

    def test_unit_area_polygon_gets_sphere_normalization(self):
        rng = np.random.default_rng(17)
        while True:
            chart = build_chart(random_slope_system(rng, 6))
            if chart.perimeter_sum > 0.5:
                break
        rho = math.sqrt(2.0 / chart.perimeter_sum)
        polygon = polygon_from_radii(chart, np.full(4, rho))
        coords = normalized_coordinates(chart, polygon)
        assert coords.normalized is not None
        mask = chart.positive_mask
        assert float(np.sum(coords.normalized[mask] ** 2)) == pytest.approx(1.0)


class TestTopologyReport:
    def test_triangle_positive_class(self):
        report = topology_report(build_chart(SlopeSystem.from_degrees([0, 120, 60])))
        assert report.half_turns == 2
        assert report.positive_component.describe() == "S^0 x D^0"
        assert report.negative_component.empty

    def test_quadrilateral_middle_class(self):
        rng = np.random.default_rng(18)
        while True:
            chart = build_chart(random_slope_system(rng, 4))
            if chart.half_turns == 2:
                break
        report = topology_report(chart)
        assert report.negative_component.describe() == "S^0 x D^1"
        assert report.positive_component.describe() == "S^0 x D^1"

    def test_pentagon_k3(self):
        rng = np.random.default_rng(19)
        while True:
            chart = build_chart(random_slope_system(rng, 5))
            if chart.half_turns == 3:
                break
        report = topology_report(chart)
        assert report.negative_component.describe() == "S^0 x D^2"
        assert report.positive_component.describe() == "S^1 x D^1"


# The reconstruction one triangle, edge and vertex at a time, as it ran before
# it worked on stacks; every stacked row must agree with these loops to
# roundoff and raise the same error with the same text.


def reference_polygon_from_radii(chart, radii):
    """The sequential tangent construction: circle i is tangent to e_1 and
    e_{i+1}, and e_{i+2} is its tangent of slope s_{i+2}."""
    angles, tol = chart.system.angles.tolist(), chart.tol
    r = [float(x) for x in radii]
    n = chart.n
    normals = [(-math.sin(a), math.cos(a)) for a in angles]
    offsets = [0.0] * n
    x, y = r[0] * normals[0][0], r[0] * normals[0][1]
    offsets[1] = normals[1][0] * x + normals[1][1] * y - r[0]
    offsets[2] = normals[2][0] * x + normals[2][1] * y - r[0]
    for i in range(1, n - 2):
        x, y = reference_intersect_lines(angles[0], r[i], angles[i + 1], offsets[i + 1] + r[i], tol)
        offsets[i + 2] = normals[i + 2][0] * x + normals[i + 2][1] * y - r[i]
    polygon = PolygonChain(reference_line_vertices(angles, offsets, tol))
    p = chart.unit_perimeters
    area_terms = 0.5 * p * np.asarray(r) ** 2
    perim_terms = p * np.asarray(r)
    area_err = abs(oriented_area(polygon) - float(np.sum(area_terms)))
    perim_err = abs(signed_perimeter(polygon, chart.system, tol) - float(np.sum(perim_terms)))
    if area_err > 2048.0 * EPS * float(np.sum(np.abs(area_terms))) or (
        perim_err > 2048.0 * EPS * float(np.sum(np.abs(perim_terms)))
    ):
        raise ReconstructionDegenerate(
            f"reconstruction violates chart laws (area error {area_err!r}, "
            f"perimeter error {perim_err!r})"
        )
    return polygon


def reference_line_offsets(chart, polygon):
    angles, tol = chart.system.angles, chart.tol
    scale = polygon.diameter + float(np.max(np.abs(polygon.vertices)))
    for i in range(chart.n):
        roundoff = 256.0 * EPS * scale / polygon.edge_lengths[i]
        if line_gap(polygon.edge_angles[i], angles[i]) > tol.parallel + roundoff:
            raise SlopeMismatch(f"edge {i} does not match slope {i}")
    return edge_offsets(polygon.vertices, angles)


def line_offsets(chart, polygon):
    """The offsets that every public wrapper reads, of one polygon."""
    return _line_offsets(chart, polygon.vertices)


def reference_decomposition(chart, polygon):
    offsets = reference_line_offsets(chart, polygon)
    angles = chart.system.angles
    triangles = []
    for i in range(chart.n - 2):
        idx = (0, i + 1, i + 2)
        vertices = reference_line_vertices(angles[list(idx)], offsets[list(idx)], chart.tol)
        triangles.append(PolygonChain(vertices))
    return triangles


def reference_coordinates(chart, polygon):
    offsets = reference_line_offsets(chart, polygon)
    first_normal = left_normal(chart.system.angles[0])
    x = np.empty(chart.n - 2)
    for i in range(chart.n - 2):
        signed_dist = float(first_normal @ polygon.vertices[i + 2]) - offsets[0]
        x[i] = math.sqrt(chart.area_constants[i]) * signed_dist
    return x


def stacked_draws(seed, count):
    """(chart, three rows of radii): two random, one tangential; n 3..14."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 15))
        chart = build_chart(random_slope_system(rng, n))
        rows = [random_radii(rng, n - 2), random_radii(rng, n - 2), np.full(n - 2, 0.7)]
        yield chart, np.array(rows)


class TestStackedReconstruction:
    def test_rows_agree_with_the_sequential_construction(self):
        worst = 0.0
        for chart, rows in stacked_draws(60, 300):
            stacked = polygon_from_radii(chart, rows)
            assert stacked.shape == (3, chart.n, 2)
            for row, radii in zip(stacked, rows):
                expected = reference_polygon_from_radii(chart, radii)
                worst = max(worst, np.max(np.abs(row - expected.vertices)) / expected.diameter)
                # The one-row call is the same arithmetic.
                assert np.array_equal(polygon_from_radii(chart, radii).vertices, row)
        assert worst <= 1e-12

    def test_triangles_offsets_and_coordinates_agree_with_loops(self):
        for chart, rows in stacked_draws(61, 200):
            polygon = polygon_from_radii(chart, rows[0])
            offsets = line_offsets(chart, polygon)
            assert np.array_equal(offsets, reference_line_offsets(chart, polygon))
            triangles = decomposition_polygons(chart, polygon)
            assert triangles.shape == (chart.n - 2, 3, 2)
            for stacked, expected in zip(triangles, reference_decomposition(chart, polygon)):
                scale = max(1.0, float(np.max(np.abs(expected.vertices))))
                assert np.max(np.abs(stacked - expected.vertices)) <= 1e-12 * scale
            x = normalized_coordinates(chart, polygon).x
            expected = reference_coordinates(chart, polygon)
            assert np.max(np.abs(x - expected)) <= 1e-12 * max(1.0, float(np.max(np.abs(expected))))

    def test_zero_radii_give_the_zero_polygon(self):
        # Zero radii make every line pass through the origin: every vertex,
        # in the stack and in the loop reference, is the origin, a polygon
        # whose edges are all zero, of area 0 and signed perimeter 0.
        for chart, rows in stacked_draws(64, 40):
            rows[1:] = 0.0
            stacked = polygon_from_radii(chart, rows)
            zero = reference_polygon_from_radii(chart, rows[1])
            assert not stacked[1:].any() and not zero.vertices.any()
            assert oriented_area(zero) == 0.0
            assert signed_perimeter(zero, chart.system) == 0.0
            assert not radii_of_polygon(chart, zero).any()
            assert not decomposition_polygons(chart, zero).any()

    def test_violated_chart_laws_named_as_before(self):
        # The message quotes both errors, which differ from the loop's by the
        # rounding of the vertices.
        for chart, rows in stacked_draws(65, 20):
            wrong = dataclasses.replace(chart, unit_perimeters=chart.unit_perimeters * 1.001)
            expected = outcome_text(reference_polygon_from_radii, wrong, rows[0])
            stacked = outcome_text(polygon_from_radii, wrong, rows)
            assert stacked[0] == expected[0] == "ReconstructionDegenerate"
            numbers = [
                [float(word.strip(",)")) for word in text.split() if word[0].isdigit()]
                for text in (stacked[1], expected[1])
            ]
            assert np.allclose(*numbers, rtol=1e-9, atol=0.0)
            assert stacked[1].split("(")[0] == expected[1].split("(")[0]
            # One part in 1e12 breaks the perimeter law where its terms
            # p_i r_i share a sign.
            aligned = np.abs(rows[0]) * np.sign(chart.unit_perimeters)
            wrong = dataclasses.replace(chart, unit_perimeters=chart.unit_perimeters * (1 + 1e-12))
            assert outcome_text(polygon_from_radii, chart, aligned) is None
            for func in (reference_polygon_from_radii, polygon_from_radii):
                assert outcome_text(func, wrong, aligned)[0] == "ReconstructionDegenerate"

    def test_slope_mismatch_named_as_before(self):
        for chart, rows in stacked_draws(66, 40):
            if chart.n < 5:
                continue
            angles = chart.system.angles.copy()
            angles[[2, 4]] += 0.1
            other = build_chart(SlopeSystem.from_angles(angles))
            polygon = polygon_from_radii(chart, rows[0])
            for func in (reference_line_offsets, line_offsets, decomposition_polygons,
                         radii_of_polygon, normalized_coordinates):
                assert outcome_text(func, other, polygon) == (
                    "SlopeMismatch", "edge 2 does not match slope 2"
                )
            short = PolygonChain(polygon.vertices[:-1])
            for func in (line_offsets, decomposition_polygons, radii_of_polygon,
                         normalized_coordinates):
                assert outcome_text(func, chart, short) == (
                    "SlopeMismatch", f"polygon has {chart.n - 1} edges, chart expects {chart.n}"
                )


class TestZeroEdges:
    def test_axes_and_zero_edge_hyperplanes_reconstruct(self):
        # The edge lengths l = L r are linear in the radii, so the
        # configuration space holds each coordinate axis and each hyperplane
        # l_j = 0, a point of which is a random row projected along L_j.
        # Every such polygon meets both chart laws (the 2048 eps sum|terms|
        # bound of the reconstruction), its edge j is zero to 256 eps sum|l|
        # (measured: 27 eps), it is a PolygonChain whose decomposition
        # triangles are built, and its radii read back within 1e-11 max|r|
        # (measured: 1.2e-12; a generic row of the same charts 2.7e-13).
        rng = np.random.default_rng(71)
        for _ in range(300):
            n = int(rng.integers(4, 13))
            chart = build_chart(random_slope_system(rng, n))
            angles, p = chart.system.angles, chart.unit_perimeters
            lengths = edge_lengths_along(polygon_from_radii(chart, np.eye(n - 2)), angles).T
            r = random_radii(rng, n - 2)
            planes = [r - (row @ r) / (row @ row) * row for row in lengths]
            for j, radii in enumerate([*np.eye(n - 2), *planes]):
                polygon = polygon_from_radii(chart, radii)
                area, perimeter = p * radii**2 / 2, p * radii
                assert abs(oriented_area(polygon) - area.sum()) <= 2048 * EPS * np.abs(area).sum()
                assert abs(signed_perimeter(polygon, chart.system) - perimeter.sum()) <= (
                    2048 * EPS * np.abs(perimeter).sum()
                )
                if j >= n - 2:
                    signed = edge_lengths_along(polygon.vertices, angles)
                    assert abs(signed[j - (n - 2)]) <= 256 * EPS * np.abs(signed).sum()
                assert decomposition_polygons(chart, polygon).shape == (n - 2, 3, 2)
                back = radii_of_polygon(chart, polygon)
                assert np.max(np.abs(back - radii)) <= 1e-11 * np.max(np.abs(radii))


# test_fuzz.ANGLES[1213] and its third random_radii draw from default_rng(2022)
# (three draws per system of ANGLES[:1500], in order): lines 0.03 degrees apart.
CLOSE_LINES_DEG = [
    206.3134055379558, 92.62433426327802, 303.3954487849579, 194.49230083259678,
    26.347069107721047, 239.37387029719463, 236.70852701137147, 241.76483646884785,
    176.84724818166103, 136.04824434078003, 331.2605926148774, 143.28217034516686,
]
CLOSE_LINES_RADII = [
    0.15154366470482383, 0.9593459299314757, -1.4888316758217743, 1.545187042728716,
    1.0548873237645702, 1.8588762830338945, 0.8412576551031421, 0.2408392238783077,
    -0.10738011477053178, 1.366529302762621,
]


@pytest.mark.xfail(
    strict=True,
    raises=ReconstructionDegenerate,
    reason="the chart-law bound 2048 eps sum|terms| does not grow with 1/sin(least line gap)",
)
def test_valid_chart_with_close_lines_reconstructs():
    # A valid chart and finite radii: the polygon exists.  Its area misses
    # the quadratic law by 1.17e-8, 3,359 units of eps sum|terms|.
    chart = build_chart(SlopeSystem.from_degrees(CLOSE_LINES_DEG))
    polygon = polygon_from_radii(chart, CLOSE_LINES_RADII)
    assert polygon.n == len(CLOSE_LINES_DEG)
