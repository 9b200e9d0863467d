"""Tests for perimeter critical points, Hessians, and Morse indices."""

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
    morse_index_formula,
    tangential_critical_points,
)
from polyslope.geometry import left_normals
from polyslope.randomgen import random_convex_slope_system, random_slope_system, trial_rng
from polyslope.tangential import (
    COMPLEX_STEP,
    _HyperDual,
    constrained_perimeter,
    critical_gradient_norms,
    hessian_errors,
    well_conditioned_chart,
)

from families import bisect_family_root, family_system

EQUILATERAL = SlopeSystem.from_degrees([90, 210, 330])


def complex_step_gradient(chart, free_radii, target_area, branch):
    """Gradient of the constrained perimeter at any free radii, one complex
    row per direction, as :func:`critical_gradient_norm` takes it."""
    free = np.asarray(free_radii, dtype=float)
    rows = free + 1j * COMPLEX_STEP * np.eye(len(free))
    return constrained_perimeter(chart, rows, target_area, branch).imag / COMPLEX_STEP


def hyperdual_hessian(chart, free_radii, target_area, branch):
    """Hessian of the constrained perimeter at any free radii, one hyper-dual
    row per pair j <= k, as :func:`hessian_fd_comparison` takes it."""
    free = np.asarray(free_radii, dtype=float)
    m = len(free)
    j, k = np.triu_indices(m)
    units = np.eye(m)
    rows = _HyperDual(np.tile(free, (len(j), 1)), units[j], units[k], 0.0 * units[j])
    hessian = np.empty((m, m))
    hessian[j, k] = hessian[k, j] = constrained_perimeter(chart, rows, target_area, branch).parts[3]
    return hessian


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

    def test_stack_takes_points_of_one_chart(self):
        rng = np.random.default_rng(27)
        first, second = (tangential_critical_points(random_slope_system(rng, 6)) for _ in "ab")
        assert len(critical_gradient_norms(first)) == 2
        with pytest.raises(ValueError, match="share one chart"):
            critical_gradient_norms((first[0], second[1]))

    def test_large_away_from_critical_points(self):
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
            grad = complex_step_gradient(chart, free, target, point.inradius)
            fd = reference_gradient_fd(
                chart, free, target, point.inradius, 1e-6 * abs(point.inradius)
            )
            scale = float(np.sum(np.abs(chart.unit_perimeters))) * abs(point.inradius)
            assert float(np.linalg.norm(grad)) > 1e-3 * scale
            assert float(np.linalg.norm(grad - fd)) < 1e-6 * scale


class TestHessian:
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
            chart = build_chart(random_slope_system(rng, n))
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
        chart = build_chart(random_slope_system(rng, n))
        assert n == 5
        for point in tangential_critical_points(chart):
            closed, _ = hessian_fd_comparison(point)
            fd = reference_hessian_fd_comparison(point)
            scale = float(np.max(np.abs(closed)))
            rel = np.abs(fd - closed) / np.maximum(np.abs(closed), 1e-2 * scale)
            assert float(np.max(rel)) < 1e-5
            error, bound = hessian_errors((point,))[0]
            assert error <= bound

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
        # Two oracles for the sign count, computed here from the Hessian:
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
                assert morse_index_formula(point) == 1
                assert morse_index_eigen(point).index_eigen == 1
                found = True
                break
        assert found


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
        # The wrong area sign leaves no real r_1: the closed form, on real,
        # complex and hyper-dual radii, and the Newton twin below refuse it.
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
        oracles = (
            constrained_perimeter,
            complex_step_gradient,
            hyperdual_hessian,
            reference_solve_first_radius,
        )
        for oracle in oracles:
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
                grad = complex_step_gradient(chart, free, target, r)
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
        # meet, so the twin checks the complex and hyper-dual arithmetic.
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
            grad = complex_step_gradient(chart, free, target, r)
            fd = reference_gradient_fd(chart, free, target, r, GRADIENT_FD_STEP * abs(r))
            # The twin's roundoff is about eps sum|p| / GRADIENT_FD_STEP.
            noise = 16.0 * np.finfo(float).eps * float(np.sum(np.abs(chart.unit_perimeters)))
            assert float(np.max(np.abs(grad - fd))) < noise / GRADIENT_FD_STEP
            exact = hyperdual_hessian(chart, free, target, r)
            coarse, fine = (
                reference_hessian_fd(chart, free, target, r, step * abs(r)) for step in (4e-3, 2e-3)
            )
            extrapolated = (4.0 * fine - coarse) / 3.0
            scale = float(np.max(np.abs(exact)))
            assert float(np.max(np.abs(extrapolated - exact))) < 1e-5 * scale
