"""Tests for perimeter critical points, Hessians, and Morse indices."""

import dataclasses
import math

import numpy as np
import pytest

from polyslope import (
    DEFAULT_TOL,
    NotCritical,
    SlopeSystem,
    build_chart,
    critical_gradient_norm,
    hessian_det_identity,
    hessian_fd_comparison,
    morse_index_eigen,
    tangential_critical_points,
)
from polyslope.geometry import area_form, edge_lengths_along, left_normals, line_vertices
from polyslope.randomgen import random_convex_slope_system, random_slope_system, trial_rng
from polyslope.slope_space import _radii_offsets, polygon_from_radii
import polyslope.tangential as tangential_module
from polyslope.sweeps import check_hessian_difference
from polyslope.tangential import (
    _edge_space_form,
    constrained_perimeter,
    edge_hessians,
    edge_terms,
    index_pair,
    index_reports,
    tangential_residual,
    well_conditioned_chart,
)

from families import bisect_family_root, family_system, near_exceptional_system

EQUILATERAL = SlopeSystem.from_degrees([90, 210, 330])


def pulled_back_derivatives(chart, free_radii, target_area, branch):
    """Gradient and Hessian of the constrained perimeter at any free radii x,
    pulled back from edge space.  With r_1 from the area law, l = M r the
    signed edge lengths and G = M J the edge moves along the slice, where
    J = [-p_{2..} x / (p_1 r_1); I], the gradient is G^T (1 - Q l / r_1) and
    the Hessian -G^T Q G / r_1: the multiplier 1 / r_1 makes the
    Lagrangian stationary in r_1, the one radius the slice bends in."""
    p, angles = chart.unit_perimeters, chart.system.angles
    free = np.asarray(free_radii, dtype=float)
    first = math.copysign(math.sqrt((2.0 * target_area - np.sum(p[1:] * free**2)) / p[0]), branch)
    lines = line_vertices(angles, _radii_offsets(angles, np.eye(chart.n - 2)), chart.tol)
    edge_map = edge_lengths_along(lines, angles).T
    moves = edge_map @ np.vstack((-p[1:] * free / (p[0] * first), np.eye(len(free))))
    form = area_form(angles)
    lengths = edge_map @ np.concatenate(([first], free))
    return moves.T @ (1.0 - form @ lengths / first), -moves.T @ form @ moves / first


class TestCriticalPoints:
    def test_equilateral_values(self):
        # Hand algebra: area 1 forces r = sqrt(2/Pi), perimeter = sqrt(2*Pi).
        points = tangential_critical_points(EQUILATERAL)
        assert len(points) == 2
        pi_sum = 6 * math.sqrt(3)
        expected_r = math.sqrt(2.0 / pi_sum)
        expected_p = math.sqrt(2.0 * pi_sum)
        assert points[0].inradius == pytest.approx(expected_r, abs=1e-12)
        assert points[0].perimeter == pytest.approx(expected_p, abs=1e-10)
        assert points[0].area == pytest.approx(1.0, abs=1e-12)
        assert points[1].inradius == pytest.approx(-expected_r, abs=1e-12)
        assert points[1].perimeter == pytest.approx(-expected_p, abs=1e-10)
        assert points[1].area == pytest.approx(1.0, abs=1e-12)

    def test_tangency_and_scaling_invariants(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            n = int(rng.integers(3, 10))
            chart = build_chart(random_slope_system(rng, n))
            points = tangential_critical_points(chart)
            for point in points:
                assert abs(point.area) == pytest.approx(1.0, abs=1e-10)
                assert point.area == pytest.approx(
                    0.5 * point.perimeter * point.inradius, abs=1e-10
                )
                expected_perimeter = chart.perimeter_sum * point.inradius
                assert point.perimeter == pytest.approx(
                    expected_perimeter, abs=1e-10 * max(1.0, abs(expected_perimeter))
                )
                for i, normal in enumerate(left_normals(chart.system.angles)):
                    offset = float(normal @ point.polygon.vertices[i])
                    side = float(normal @ point.incenter) - offset
                    assert side == pytest.approx(point.inradius, abs=1e-9)

    def test_points_share_area_sign_with_perimeter_sum(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            chart = build_chart(random_slope_system(rng, n))
            points = tangential_critical_points(chart)
            for point in points:
                assert math.copysign(1, point.area) == math.copysign(1, chart.perimeter_sum)

    def test_exceptional_at_family_root(self):
        root = bisect_family_root()
        result = tangential_critical_points(family_system(root))
        assert result == ()

    def test_both_sides_of_family_root_have_points(self):
        root = bisect_family_root()
        for t in (root - 1e-3, root + 1e-3):
            points = tangential_critical_points(family_system(t))
            assert len(points) == 2

    def test_chart_decides_at_its_own_tolerances(self):
        # With 1e-9 < |sum p| / sum|p| < 1e-6 a system is exceptional at a
        # thousand times the default tolerances and not at the defaults.
        rng = np.random.default_rng(24)
        loose = DEFAULT_TOL.scaled(1e3)
        for _ in range(10):
            system = near_exceptional_system(rng, int(rng.integers(4, 10)), 1e-9, 1e-6).system
            chart = build_chart(system, loose)
            assert tangential_critical_points(chart) == ()
            assert len(tangential_critical_points(build_chart(system))) == 2
            assert chart.tol is well_conditioned_chart(system, loose).tol is loose


class TestGradient:
    def test_vanishes_at_critical_points(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(4, 10))
            chart = build_chart(random_slope_system(rng, n))
            points = tangential_critical_points(chart)
            for point in points:
                norm, bound = critical_gradient_norm(point)
                assert norm < bound

    def test_large_away_from_critical_points(self):
        # A polygon of the slice with one free radius moved 30 %: its
        # residual read with the point's inradius is far above the bound,
        # and the edge-space gradient pulled back to the free radii is the
        # finite-difference one.
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            system = random_slope_system(rng, n)
            chart = well_conditioned_chart(system)
            points = tangential_critical_points(chart)
            if not points:
                continue
            point = points[0]
            free = np.full(n - 3, point.inradius)
            free[0] *= 1.3
            target = math.copysign(1.0, chart.perimeter_sum)
            grad, _ = pulled_back_derivatives(chart, free, target, point.inradius)
            fd = reference_gradient_fd(
                chart, free, target, point.inradius, 1e-6 * abs(point.inradius)
            )
            scale = float(np.sum(np.abs(chart.unit_perimeters))) * abs(point.inradius)
            assert float(np.linalg.norm(grad)) > 1e-3 * scale
            assert float(np.linalg.norm(grad - fd)) < 1e-6 * scale
            first = reference_solve_first_radius(chart, free, target, point.inradius)
            moved = polygon_from_radii(chart, np.concatenate(([first], free)))
            norm, bound, _, _ = tangential_residual(chart, moved.vertices, point.inradius)
            assert norm > 1e6 * bound


class TestEdgeSpaceChecks:
    def test_both_points_read_the_same_residual(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            points = tangential_critical_points(random_slope_system(rng, int(rng.integers(3, 13))))
            residuals = [
                tangential_residual(point.chart, point.polygon.vertices, point.inradius)
                for point in points
            ]
            assert residuals[:1] == residuals[1:]
            for norm, bound, area_error, area_bound in residuals:
                assert norm <= bound and area_error <= area_bound

    def test_wrong_first_unit_perimeter_fails_the_area_check(self):
        # p_1 off by 1e-12 of itself on systems whose best relabeling is the
        # identity, where a gradient in that relabeling saw no error: every
        # radius r is critical for any p, but the polygon of r misses unit area.
        rng = np.random.default_rng(44)
        checked = 0
        while checked < 40:
            system = random_slope_system(rng, int(rng.integers(4, 13)))
            chart = build_chart(system)
            best = well_conditioned_chart(system).system
            if best != system or not tangential_critical_points(chart):
                continue
            p = chart.unit_perimeters * np.append(1.0 + 1e-12, np.ones(chart.n - 3))
            planted = dataclasses.replace(chart, unit_perimeters=p, perimeter_sum=float(p.sum()))
            point = tangential_critical_points(planted)[0]
            norm, bound, area_error, area_bound = tangential_residual(
                planted, point.polygon.vertices, point.inradius
            )
            assert norm <= bound and not area_error <= area_bound
            checked += 1

    def test_moved_vertex_fails_the_area_check(self):
        rng = np.random.default_rng(45)
        for _ in range(40):
            points = tangential_critical_points(random_slope_system(rng, int(rng.integers(3, 13))))
            if not points:
                continue
            vertices = points[0].polygon.vertices.copy()
            vertices[int(rng.integers(len(vertices))), 0] += 1e-9 * points[0].polygon.diameter
            _, _, area_error, area_bound = tangential_residual(
                points[0].chart, vertices, points[0].inradius
            )
            assert not area_error <= area_bound


class TestHessian:
    def test_stack_takes_points_of_one_chart(self):
        rng = np.random.default_rng(27)
        first, second = (tangential_critical_points(random_slope_system(rng, 6)) for _ in "ab")
        assert all(len(stack) == 2 for stack in edge_hessians(first))
        with pytest.raises(ValueError, match="share one chart"):
            edge_hessians((first[0], second[1]))

    def test_empty_for_triangles(self):
        points = tangential_critical_points(EQUILATERAL)
        assert points[0].hessian.shape == (0, 0)

    def test_quadrilateral_single_entry(self):
        rng = np.random.default_rng(24)
        chart = build_chart(random_slope_system(rng, 4))
        points = tangential_critical_points(chart)
        p = chart.unit_perimeters
        for point in points:
            expected = -(p[1] / (point.inradius * p[0])) * (p[0] + p[1])
            assert point.hessian.shape == (1, 1)
            assert point.hessian[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_differences_at_documented_step(self):
        # Plain central differences at step 1e-5 * r resolve the Hessian to
        # about 1e-3 of scale in double precision; the Richardson-extrapolated
        # oracle below certifies 1e-5.
        rng = np.random.default_rng(9)
        system = random_slope_system(rng, 6)
        chart = well_conditioned_chart(system)
        target = math.copysign(1.0, chart.perimeter_sum)
        for point in tangential_critical_points(chart):
            closed = point.hessian
            free = np.full(point.n - 3, point.inradius)
            fd = reference_hessian_fd(
                chart, free, target, point.inradius, 1e-5 * abs(point.inradius)
            )
            scale = float(np.max(np.abs(closed)))
            rel = np.abs(fd - closed) / np.maximum(np.abs(closed), 1e-2 * scale)
            assert float(np.max(rel)) < 1e-3

    def test_matches_extrapolated_differences_tightly(self):
        rng = np.random.default_rng(25)
        for _ in range(15):
            n = int(rng.integers(4, 9))
            chart = well_conditioned_chart(random_slope_system(rng, n))
            points = tangential_critical_points(chart)
            for point in points:
                closed, _ = hessian_fd_comparison(point)
                fd = reference_hessian_fd_comparison(point)
                scale = float(np.max(np.abs(closed)))
                rel = np.abs(fd - closed) / np.maximum(np.abs(closed), 1e-2 * scale)
                assert float(np.max(rel)) < 1e-5

    def test_extrapolation_ladder_resolves_noise_bound_system(self):
        # The system that seed 38, trial 11 of the sweep drew while it checked
        # finite differences (n = 5): the extrapolated error falls as the step
        # grows, 1.7e-5 at 2e-3 * |r| and 7.4e-7 at 8e-3 * |r|, so a ladder
        # topping out at 4e-3 failed the 1e-5 bound.
        rng = trial_rng(38, 1, 11)
        n = int(rng.integers(4, 9))
        chart = well_conditioned_chart(random_slope_system(rng, n))
        assert n == 5
        for point in tangential_critical_points(chart):
            closed, _ = hessian_fd_comparison(point)
            fd = reference_hessian_fd_comparison(point)
            scale = float(np.max(np.abs(closed)))
            rel = np.abs(fd - closed) / np.maximum(np.abs(closed), 1e-2 * scale)
            assert float(np.max(rel)) < 1e-5
        rng = trial_rng(38, 1, 11)
        rows = check_hessian_difference(rng, int(rng.integers(4, 9)), DEFAULT_TOL)
        assert all(error <= bound for _, error, bound in rows)

    def test_determinant_identity_small_cases(self):
        rng = np.random.default_rng(26)
        for n in (4, 5, 8):
            chart = build_chart(random_slope_system(rng, n))
            points = tangential_critical_points(chart)
            p = chart.unit_perimeters
            for point in points:
                lhs, rhs = hessian_det_identity(point)
                assert lhs == pytest.approx(rhs, rel=1e-9)
                if n == 4:
                    det = float(np.linalg.det(point.hessian))
                    assert det == pytest.approx(
                        -p[1] * chart.perimeter_sum / (p[0] * point.inradius), rel=1e-10
                    )
                if n == 5:
                    lhs5 = point.inradius**2 * float(np.linalg.det(point.hessian))
                    rhs5 = (-p[1] * chart.perimeter_sum / p[0]) * (-p[2])
                    assert lhs5 == pytest.approx(rhs5, rel=1e-9)


class TestMorseIndex:
    def test_triangle_index_zero_both_routes(self):
        rng = np.random.default_rng(27)
        systems = [EQUILATERAL] + [random_slope_system(rng, 3) for _ in range(20)]
        for system in systems:
            points = tangential_critical_points(system)
            for point in points:
                report = morse_index_eigen(point)
                assert report.index_eigen == 0
                assert report.index_formula == 0
                assert report.agreement

    def test_convex_extremes(self):
        rng = np.random.default_rng(28)
        for n in range(4, 10):
            system = random_convex_slope_system(rng, n)
            points = tangential_critical_points(system)
            for point in points:
                report = morse_index_eigen(point)
                expected = 0 if point.inradius > 0 else n - 3
                assert report.index_eigen == expected
                assert report.index_formula == expected

    def test_index_complement_and_agreement(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(4, 10))
            chart = build_chart(random_slope_system(rng, n))
            points = tangential_critical_points(chart)
            if not points:
                continue
            reports = [morse_index_eigen(point) for point in points]
            assert all(r.agreement for r in reports)
            assert reports[0].index_eigen + reports[1].index_eigen == n - 3

    def test_index_invariant_under_relabeling(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            system = random_slope_system(rng, n)
            base = sorted(
                morse_index_eigen(p).index_eigen
                for p in tangential_critical_points(system)
            )
            for shift in (1, n // 2):
                rotated = sorted(
                    morse_index_eigen(p).index_eigen
                    for p in tangential_critical_points(system.rotated(shift))
                )
                assert rotated == base

    def test_minor_signs_count_negative_eigenvalues(self):
        # Two oracles for the index, computed here from the closed-form Hessian:
        # Jacobi's rule (sign changes along 1 and the leading principal
        # minors) and the floating-point eigenvalue count.
        rng = np.random.default_rng(31)
        compared = 0
        for _ in range(300):
            n = int(rng.integers(4, 15))
            points = tangential_critical_points(random_slope_system(rng, n))
            for point in points:
                hessian = point.hessian
                minors = [np.linalg.det(hessian[:k, :k]) for k in range(1, n - 2)]
                signs = np.sign([1.0, *minors])
                changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
                negatives = int(np.count_nonzero(np.linalg.eigvalsh(hessian) < 0))
                assert changes == negatives == morse_index_eigen(point).index_eigen
                compared += 1
        assert compared >= 590

    def test_formula_saddle_example(self):
        # A positive-inradius point with one right turn, winding one, and
        # positive perimeter sits at index 1.
        rng = np.random.default_rng(32)
        found = False
        for _ in range(400):
            chart = build_chart(random_slope_system(rng, 5))
            points = tangential_critical_points(chart)
            if not points:
                continue
            point = points[0] if points[0].inradius > 0 else points[1]
            if chart.right_turns == 1 and chart.winding == 1 and point.perimeter > 0:
                report = morse_index_eigen(point)
                assert report.index_formula == report.index_eigen == 1
                found = True
                break
        assert found


    def test_count_within_roundoff_allows_either_index(self, monkeypatch):
        # Next to the exceptional locus, with two lines 1e-8 degrees apart,
        # the vertices cannot resolve the area form on T: its one eigenvalue
        # lies within the roundoff bound, so the count may be 0 or 1 and the
        # formula agrees.  A formula one more is outside that range at r > 0
        # and inside it at r < 0; on a resolved system it is outside at both.
        chart = build_chart(SlopeSystem.from_degrees([0, 120, 1e-8, 240]), DEFAULT_TOL.scaled(1e-3))
        points = tangential_critical_points(chart)
        vertices = points[0].polygon.vertices
        form, bound = _edge_space_form(chart, edge_terms(chart, vertices)[1], points[0].inradius)
        counts = np.searchsorted(np.linalg.eigvalsh(form), (-bound, 0.0, bound))
        assert counts.tolist() == [0, 1, 1]
        assert [report.agreement for report in index_reports(points, vertices)] == [True, True]
        resolved = tangential_critical_points(SlopeSystem.from_degrees([10, 80, 150, 230, 300]))
        monkeypatch.setattr(
            tangential_module, "index_pair", lambda *a: tuple(mu + 1 for mu in index_pair(*a))
        )
        assert [report.agreement for report in index_reports(points, vertices)] == [False, True]
        reports = index_reports(resolved, resolved[0].polygon.vertices)
        assert [report.agreement for report in reports] == [False, False]


class TestConstrainedChart:
    def test_constraint_is_maintained(self):
        rng = np.random.default_rng(33)
        chart = well_conditioned_chart(random_slope_system(rng, 6))
        points = tangential_critical_points(chart)
        point = points[0]
        target = math.copysign(1.0, chart.perimeter_sum)
        free = np.full(3, point.inradius) * np.array([1.1, 0.95, 1.02])
        value = constrained_perimeter(chart, free, target, point.inradius)
        p = chart.unit_perimeters
        # Recover the implicit radius from the reported perimeter and verify
        # the area constraint directly.
        r0 = (value - float(np.sum(p[1:] * free))) / p[0]
        area = 0.5 * (p[0] * r0**2 + float(np.sum(p[1:] * free**2)))
        assert area == pytest.approx(target, abs=1e-12)

    def test_wrong_area_sign_raises(self):
        # The wrong area sign leaves no real r_1: the closed form and the
        # Newton twin below refuse it.
        # At x = r the radicand is r**2 - 4 sgn(sum p) / p_1, negative exactly
        # when p_1 has the sign of sum p and |p_1| < 2 |sum p|.
        rng = np.random.default_rng(35)
        while True:
            chart = well_conditioned_chart(random_slope_system(rng, 6))
            p1, total = chart.unit_perimeters[0], chart.perimeter_sum
            if p1 * total > 0 and abs(p1) < 2.0 * abs(total):
                break
        point = tangential_critical_points(chart)[0]
        target = math.copysign(1.0, total)
        assert point.inradius**2 - 4.0 * target / p1 < 0
        args = (np.full(3, point.inradius), -target, point.inradius)
        for oracle in (constrained_perimeter, reference_solve_first_radius):
            with pytest.raises(NotCritical):
                oracle(chart, *args)


# Test-only oracles of the exact derivatives: central finite differences of
# the perimeter on the unit-area slice, with r_1 from a scalar Newton solve
# per stencil point instead of the closed form.  The Hessian differences are
# Richardson-extrapolated along FD_LADDER (steps as fractions of |r|), and the
# estimate where successive extrapolations agree best wins.

NEWTON_TOL = 1e-12  # residual of the area law, relative to its terms
FD_LADDER = (1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)
GRADIENT_FD_STEP = 1e-6  # central-difference step of the gradient, times |r|


def reference_solve_first_radius(chart, free_radii, target_area, seed):
    p0 = float(chart.unit_perimeters[0])
    tail = float(np.sum(chart.unit_perimeters[1:] * np.asarray(free_radii) ** 2))
    tail_scale = float(np.sum(np.abs(chart.unit_perimeters[1:]) * np.asarray(free_radii) ** 2))
    r = float(seed)
    for _ in range(60):
        residual = 0.5 * (p0 * r * r + tail) - target_area
        slope = p0 * r
        if slope == 0.0:
            raise NotCritical("area constraint has vanishing derivative in r_1")
        step = residual / slope
        r -= step
        if abs(step) <= 1e-16 * max(1.0, abs(r)):
            break
    residual = 0.5 * (p0 * r * r + tail) - target_area
    scale = max(1.0, abs(target_area), 0.5 * (abs(p0) * r * r + tail_scale))
    if abs(residual) > NEWTON_TOL * scale:
        raise NotCritical(f"area constraint solve stalled at residual {residual!r}")
    return r


def reference_constrained_perimeter(chart, free_radii, target_area, seed):
    free_radii = np.asarray(free_radii, dtype=float)
    r0 = reference_solve_first_radius(chart, free_radii, target_area, seed)
    p = chart.unit_perimeters
    return float(p[0] * r0 + np.sum(p[1:] * free_radii))


def reference_gradient_fd(chart, free_radii, target_area, seed, step):
    free_radii = np.asarray(free_radii, dtype=float)
    grad = np.empty(len(free_radii))
    for j in range(len(free_radii)):
        plus = free_radii.copy()
        minus = free_radii.copy()
        plus[j] += step
        minus[j] -= step
        grad[j] = (
            reference_constrained_perimeter(chart, plus, target_area, seed)
            - reference_constrained_perimeter(chart, minus, target_area, seed)
        ) / (2.0 * step)
    return grad


def reference_hessian_fd(chart, free_radii, target_area, seed, step):
    free_radii = np.asarray(free_radii, dtype=float)
    m = len(free_radii)

    def value(offsets):
        return reference_constrained_perimeter(chart, free_radii + offsets, target_area, seed)

    center = value(np.zeros(m))
    hessian = np.empty((m, m))
    for j in range(m):
        ej = np.zeros(m)
        ej[j] = step
        hessian[j, j] = (value(ej) + value(-ej) - 2.0 * center) / step**2
        for k in range(j + 1, m):
            ek = np.zeros(m)
            ek[k] = step
            mixed = (
                value(ej + ek) - value(ej - ek) - value(-ej + ek) + value(-ej - ek)
            ) / (4.0 * step**2)
            hessian[j, k] = mixed
            hessian[k, j] = mixed
    return hessian


def reference_hessian_fd_comparison(point):
    chart = well_conditioned_chart(point.chart.system)
    free = np.full(point.n - 3, point.inradius)
    target = math.copysign(1.0, chart.perimeter_sum)
    stencils = [
        reference_hessian_fd(chart, free, target, point.inradius, f * abs(point.inradius))
        for f in FD_LADDER
    ]
    extrapolated = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(stencils, stencils[1:])]
    gaps = [float(np.max(np.abs(b - a))) for a, b in zip(extrapolated, extrapolated[1:])]
    return extrapolated[int(np.argmin(gaps)) + 1]


class TestExactDerivatives:
    def test_agree_with_scalar_finite_differences(self):
        # The bounds are what the twin's differences certify; near the
        # exceptional locus they certify less, so those systems are skipped.
        eps = float(np.finfo(float).eps)
        rng = np.random.default_rng(34)
        checked = 0
        while checked < 30:
            n = int(rng.integers(4, 9))
            chart = well_conditioned_chart(random_slope_system(rng, n))
            scale = float(np.sum(np.abs(chart.unit_perimeters)))
            if abs(chart.perimeter_sum) < 1e-3 * scale:
                continue
            checked += 1
            target = math.copysign(1.0, chart.perimeter_sum)
            for point in tangential_critical_points(chart):
                r = point.inradius
                free = np.full(n - 3, r)
                grad, _ = pulled_back_derivatives(chart, free, target, r)
                fd = reference_gradient_fd(chart, free, target, r, GRADIENT_FD_STEP * abs(r))
                gradient_bound = max(1e-6, 16.0 * eps * scale / GRADIENT_FD_STEP)
                assert float(np.linalg.norm(grad - fd)) < gradient_bound
                _, exact = hessian_fd_comparison(point)
                fd = reference_hessian_fd_comparison(point)
                hessian_scale = float(np.max(np.abs(exact)))
                rel = np.abs(fd - exact) / np.maximum(np.abs(exact), 1e-2 * hessian_scale)
                assert float(np.max(rel)) < 1e-5


    def test_agree_with_scalar_finite_differences_off_critical_points(self):
        # Away from a critical point neither derivative has a closed form to
        # meet, so the twin checks the edge-space pull-back itself.
        rng = np.random.default_rng(36)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            chart = well_conditioned_chart(random_slope_system(rng, n))
            points = tangential_critical_points(chart)
            if not points:
                continue
            target = math.copysign(1.0, chart.perimeter_sum)
            r = points[0].inradius
            free = r * rng.uniform(0.9, 1.1, n - 3)
            grad, exact = pulled_back_derivatives(chart, free, target, r)
            fd = reference_gradient_fd(chart, free, target, r, GRADIENT_FD_STEP * abs(r))
            # The twin's roundoff is about eps sum|p| / GRADIENT_FD_STEP.
            noise = 16.0 * np.finfo(float).eps * float(np.sum(np.abs(chart.unit_perimeters)))
            assert float(np.max(np.abs(grad - fd))) < noise / GRADIENT_FD_STEP
            coarse, fine = (
                reference_hessian_fd(chart, free, target, r, step * abs(r)) for step in (4e-3, 2e-3)
            )
            extrapolated = (4.0 * fine - coarse) / 3.0
            scale = float(np.max(np.abs(exact)))
            assert float(np.max(np.abs(extrapolated - exact))) < 1e-5 * scale
