"""Tests for cyclic polygons, duality, and the area Morse index."""

import collections
import math
import sys

import numpy as np
import pytest

import polyslope.cyclic as cyclic_module
import polyslope.tangential as tangential_module

from polyslope import (
    AntipodalVertices,
    Bifurcating,
    CoincidentVertices,
    CyclicPolygon,
    build_chart,
    DegenerateCritical,
    InputError,
    LengthMismatch,
    ParallelLines,
    PolygonChain,
    SlopeSystem,
    area_criticality_residual,
    area_morse_index_formula,
    area_morse_index_numeric,
    bifurcation_test,
    cyclic_invariants,
    dual_polygon,
    duality_index_check,
    radii_of_polygon,
    signed_perimeter,
    winding_number,
)
from polyslope import cli
from polyslope.geometry import left_normals, signed_perimeters, tangential_polygons
from polyslope.tolerances import DEFAULT_TOL
from polyslope.randomgen import STAR_SIZES, random_cyclic_polygon, random_star_polygon
from polyslope.report import cyclic_report
from polyslope.sweeps import run_sweep

from area_chart import (
    chain_area,
    chain_area_gradient,
    chain_area_hessian,
    closure_jacobian,
    closure_residual,
)
import test_fuzz
from families import (
    FOLD_PENTAGON,
    FOLD_QUADRILATERAL,
    bif_family,
    bisect_bifurcation_root,
    folded_phis,
    near_bifurcation_phis,
    negative_count,
)

SQUARE = CyclicPolygon.from_degrees(1.0, [0, 90, 180, 270])
SQUARE_REVERSED = CyclicPolygon.from_degrees(1.0, [270, 180, 90, 0])
PENTAGRAM = CyclicPolygon.from_degrees(1.0, [0, 144, 288, 72, 216])


class TestInvariants:
    def test_square(self):
        inv = cyclic_invariants(SQUARE)
        assert inv.orientations.tolist() == [1, 1, 1, 1]
        assert np.allclose(inv.half_angles, math.pi / 4)
        assert inv.positive_edges == 4
        assert inv.winding == 1
        assert inv.bifurcation_sum == pytest.approx(4.0)

    def test_square_reversed(self):
        inv = cyclic_invariants(SQUARE_REVERSED)
        assert inv.orientations.tolist() == [-1, -1, -1, -1]
        assert inv.positive_edges == 0
        assert inv.winding == -1
        assert inv.bifurcation_sum == pytest.approx(-4.0)

    def test_pentagram(self):
        inv = cyclic_invariants(PENTAGRAM)
        assert inv.positive_edges == 5
        assert inv.winding == 2
        assert inv.bifurcation_sum == pytest.approx(5 * math.tan(math.radians(72)))

    def test_chord_lengths(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            cyclic = random_cyclic_polygon(rng, int(rng.integers(4, 8)))
            inv = cyclic_invariants(cyclic)
            chords = cyclic.polygon.edge_lengths
            assert np.allclose(
                chords, 2 * cyclic.radius * np.sin(inv.half_angles), atol=1e-12 * cyclic.radius
            )

    def test_winding_matches_geometric_winding(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            cyclic = random_cyclic_polygon(rng, int(rng.integers(4, 8)))
            geometric = winding_number(cyclic.polygon, cyclic.center)
            assert cyclic_invariants(cyclic).winding == geometric
        assert cyclic_invariants(PENTAGRAM).winding == winding_number(
            PENTAGRAM.polygon, PENTAGRAM.center
        )

    def test_validation_errors(self):
        with pytest.raises(CoincidentVertices):
            CyclicPolygon.from_degrees(1.0, [0, 0, 120])
        with pytest.raises(AntipodalVertices):
            CyclicPolygon.from_degrees(1.0, [0, 180.0, 240])
        with pytest.raises(ValueError):
            CyclicPolygon.from_degrees(-1.0, [0, 90, 200])
        # Non-finite values, which the command line rejects first.
        for radius, phis, center in (
            (math.nan, [0, 90, 200], (0, 0)),
            (math.inf, [0, 90, 200], (0, 0)),
            (1.0, [0, math.nan, 200], (0, 0)),
            (1.0, [0, 90, math.inf], (0, 0)),
            (1.0, [0, 90, 200], (math.nan, 0)),
        ):
            with pytest.raises(ValueError, match="finite"):
                CyclicPolygon.from_degrees(radius, phis, center)

    def test_vectorized_validation_matches_edge_loop(self):
        # The arcs are checked in one pass; the first failing edge, and its
        # error and message, are those of a loop over the edges in order.
        def loop_outcome(phis):
            arcs = (np.roll(phis, -1) - phis) % (2.0 * math.pi)
            for i, arc in enumerate(arcs.tolist()):
                pair = f"vertices {i} and {(i + 1) % len(phis)}"
                if min(arc, 2.0 * math.pi - arc) < DEFAULT_TOL.parallel:
                    return CoincidentVertices, f"{pair} coincide"
                if abs(arc - math.pi) <= 2.0 * cyclic_module.ANTIPODAL:
                    return AntipodalVertices, f"{pair} are antipodal"
            return None

        rng = np.random.default_rng(51)
        outcomes = set()
        for _ in range(400):
            phis = rng.uniform(0.0, 360.0, int(rng.integers(3, 9)))
            for i in rng.choice(len(phis), size=int(rng.integers(0, 3)), replace=False):
                gap = rng.choice((0.0, 1e-13, 1e-5)) * rng.choice((-1.0, 1.0))
                phis[i] = phis[i - 1] + 180.0 * int(rng.integers(0, 2)) + gap
            try:
                cyclic = CyclicPolygon.from_degrees(1.0, phis)
            except (CoincidentVertices, AntipodalVertices) as exc:
                outcome = (type(exc), str(exc))
            else:
                outcome = None
                assert not cyclic.arcs.flags.writeable
                assert np.array_equal(
                    cyclic.arcs, (np.roll(cyclic.phis, -1) - cyclic.phis) % (2.0 * math.pi)
                )
            reduced = np.radians(phis) % (2.0 * math.pi)
            reduced[reduced == 2.0 * math.pi] = 0.0
            assert outcome == loop_outcome(reduced), phis
            outcomes.add(None if outcome is None else outcome[0])
        assert outcomes == {None, CoincidentVertices, AntipodalVertices}


class TestDualPolygon:
    def test_dual_slopes_take_the_constructors_verdict(self):
        # The dual slopes are the checked system's angles bit for bit.  At
        # vertices 1.00000008e-9 rad apart, which the arc rule accepts, the
        # slopes' own loop on the rounded phi + pi/2 reads parallel lines,
        # and the report raised ParallelLines; it now holds its identity.
        rng = np.random.default_rng(52)
        for _ in range(50):
            cyclic = random_cyclic_polygon(rng, int(rng.integers(3, 10)))
            angles = (cyclic.phis + 0.5 * math.pi) % (2.0 * math.pi)
            assert cyclic.dual_slopes == SlopeSystem.from_angles(angles)
            assert not cyclic.dual_slopes.angles.flags.writeable
        phis = [107.89628065075429, 107.89628059345851, 200.0, 300.0]
        with pytest.raises(ParallelLines):
            SlopeSystem.from_angles(CyclicPolygon.from_degrees(1.0, phis).dual_slopes.angles)
        assert cyclic_report(1.0, phis)["indices"]["identity_holds"]

    def test_square_dual_is_circumscribed_square(self):
        dual = dual_polygon(SQUARE)
        expected = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert np.allclose(dual.polygon.vertices, expected, atol=1e-12)
        assert signed_perimeter(dual.polygon, dual.slopes) == pytest.approx(8.0)

    def test_dual_inscribed_circle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            cyclic = random_cyclic_polygon(rng, int(rng.integers(4, 8)))
            dual = dual_polygon(cyclic)
            for i, normal in enumerate(left_normals(dual.slopes.angles)):
                offset = float(normal @ dual.polygon.vertices[i])
                side = float(normal @ cyclic.center) - offset
                assert side == pytest.approx(cyclic.radius, abs=1e-9 * cyclic.radius)

    def test_perimeter_proportional_to_tangent_sum(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            cyclic = random_cyclic_polygon(rng, int(rng.integers(4, 8)))
            inv = cyclic_invariants(cyclic)
            dual = dual_polygon(cyclic)
            measured = signed_perimeter(dual.polygon, dual.slopes)
            expected = 2.0 * cyclic.radius * inv.bifurcation_sum
            assert inv.tangent_scale == pytest.approx(np.sum(np.abs(np.tan(inv.half_angles))))
            scale = 2.0 * cyclic.radius * inv.tangent_scale
            assert abs(measured - expected) <= 1e-9 * scale
            assert dual.signed_perimeter == pytest.approx(measured, rel=0, abs=1e-12 * scale)

    def test_report_checks_the_dual_about_the_origin_too(self):
        # Vertices 0 and 2 lie 3e-10 degrees apart, a fold to within 6e-12:
        # the dual's edge 1 is that long, under 1e-12 times the diameter, and
        # B is in the band.  About this center rounding moves that edge's
        # ends by a float of 16412, and a perimeter read there is 1.2e-12 off
        # 2RB.  The report's is read about the origin, within 1e-15 of 2RB.
        phis, center = [0.0, 100.0, 3e-10, 200.0], (16412.523127055625, 0.0)
        report = cyclic_report(1.0, phis, center)
        assert report["bifurcating"] and report["indices"]["withheld"]
        dual = report["dual"]
        slopes = CyclicPolygon.from_degrees(1.0, phis, center).dual_slopes.angles
        about_origin = tangential_polygons(slopes, [(0.0, 0.0)], [1.0])
        assert dual["signed_perimeter"] == float(signed_perimeters(about_origin, slopes)[0])
        twice = dual["twice_radius_times_sum"]
        assert abs(dual["signed_perimeter"] - twice) < 1e-15
        assert abs(float(signed_perimeters(np.array(dual["vertices"]), slopes)) - twice) > 1e-13


class TestFolds:
    """A fold v_i = v_{i+2} is a valid cyclic polygon, whose dual has the
    zero edge t_{i+1} = tan(arc_i / 2) + tan(arc_{i+1} / 2) = 0: it gets a
    report, and the dual, zero edge and all, is a PolygonChain."""

    def test_fold_pentagon_holds_its_identity(self):
        report = cyclic_report(1.0, FOLD_PENTAGON)
        assert not report["bifurcating"]
        indices = report["indices"]
        assert indices["identity_holds"]
        assert indices["mu_area_numeric"] == indices["mu_area_formula"] == 1
        vertices = report["dual"]["vertices"]
        assert vertices[2] == vertices[3]
        dual = dual_polygon(CyclicPolygon.from_degrees(1.0, FOLD_PENTAGON))
        assert dual.polygon.edge_lengths[2] == 0.0
        # About the origin, the center here, the chain's signed perimeter is
        # the dual's own, bit for bit.
        assert signed_perimeter(dual.polygon, dual.slopes) == dual.signed_perimeter

    def test_fold_quadrilateral_bifurcates(self):
        report = cyclic_report(1.0, FOLD_QUADRILATERAL)
        assert report["bifurcating"] and report["indices"]["withheld"]
        assert report["invariants"]["bifurcation_sum"] == 0.0

    def test_folds_and_near_folds_get_reports(self):
        # 160 folded and 160 near-folded polygons, each about two centers:
        # every one gets a report that passes the command line's checks, and
        # over 30 of each kind, folded or near, bifurcate and hold the identity.
        rng = np.random.default_rng(3)
        outcomes = collections.Counter()
        for near in [False, True] * 160:
            phis = folded_phis(rng, near)
            for center in ((0.0, 0.0), (0.5, -2.0)):
                report = cyclic_report(1.0, phis, center)
                assert cli._cross_check_failures(report) == [], (phis, center)
                outcomes[near, report["bifurcating"]] += 1
        assert all(outcomes[near, bifurcating] > 30 for near in (0, 1) for bifurcating in (0, 1))

    def test_every_folded_quadrilateral_bifurcates(self):
        # One coincidence v_i = v_{i+2} of a quadrilateral is two folds, so
        # both pairs of arcs cancel and B = 0: exactly where the sum adds
        # each pair in turn (i = 0 or 2), within roundoff where it does not.
        rng = np.random.default_rng(4)
        for _ in range(100):
            phis = rng.uniform(0.0, 360.0, 4)
            i = int(rng.integers(4))
            phis[(i + 2) % 4] = phis[i]
            try:
                cyclic = CyclicPolygon.from_degrees(1.0, phis)
            except InputError:
                continue
            inv = cyclic_invariants(cyclic)
            assert bifurcation_test(inv)
            bound = 0.0 if i % 2 == 0 else 4.0 * np.finfo(float).eps * inv.tangent_scale
            assert abs(inv.bifurcation_sum) <= bound, phis.tolist()
            report = cyclic_report(1.0, phis.tolist(), (0.5, -2.0))
            assert report["bifurcating"] and cli._cross_check_failures(report) == []


class TestBifurcation:
    def test_square_and_pentagram_not_bifurcating(self):
        assert not bifurcation_test(cyclic_invariants(SQUARE))
        assert not bifurcation_test(cyclic_invariants(PENTAGRAM))

    def test_root_found_by_bisection_is_bifurcating(self):
        root = bisect_bifurcation_root()
        cyclic = bif_family(root)
        inv = cyclic_invariants(cyclic)
        assert bifurcation_test(inv)
        dual = dual_polygon(cyclic)
        scale = 2.0 * cyclic.radius * inv.tangent_scale
        assert abs(signed_perimeter(dual.polygon, dual.slopes)) < 1e-9 * scale
        with pytest.raises(DegenerateCritical):
            area_morse_index_numeric(cyclic)
        with pytest.raises(Bifurcating):
            area_morse_index_formula(inv)

    def test_off_root_is_generic(self):
        root = bisect_bifurcation_root()
        cyclic = bif_family(root + 0.05)
        inv = cyclic_invariants(cyclic)
        assert not bifurcation_test(inv)
        assert area_morse_index_numeric(cyclic) == area_morse_index_formula(inv)

    def test_near_bifurcation_reports_hold_their_identity(self):
        # Valid polygons next to the bifurcation locus: their smallest area
        # Hessian eigenvalue is tiny but above the roundoff bound, so both
        # routes give the index.
        rng = np.random.default_rng(2026)
        for n in range(4, 10):
            for _ in range(6):
                phis = near_bifurcation_phis(rng, n, 1e-9, 1e-7)
                report = cyclic_report(1.0, phis)
                assert report["bifurcating"] is False
                indices = report["indices"]
                assert indices["mu_area_numeric"] == indices["mu_area_formula"], phis
                assert indices["identity_holds"], phis

    def test_roots_of_every_size_are_degenerate(self):
        # At n = 4 the projected Hessian is 1 x 1, so only a bound relative
        # to the unprojected Lagrangian can see it vanish.
        rng = np.random.default_rng(2027)
        for n in range(4, 10):
            cyclic = CyclicPolygon.from_degrees(1.0, near_bifurcation_phis(rng, n, 0.0, 0.0))
            assert bifurcation_test(cyclic_invariants(cyclic))
            with pytest.raises(DegenerateCritical):
                area_morse_index_numeric(cyclic)


def loop_gradient(lengths, thetas):
    """Gradient of the chord-closed area, one edge at a time."""
    n = len(thetas)
    w = lengths[:, None] * np.column_stack([np.cos(thetas), np.sin(thetas)])
    wp = np.column_stack([-w[:, 1], w[:, 0]])
    grad = np.zeros(n)
    prefix = np.vstack([np.zeros(2), np.cumsum(w[:-1], axis=0)])
    total_head = w[:-1].sum(axis=0)
    for j in range(n - 1):
        after = total_head - prefix[j] - w[j]
        diff = prefix[j] - after
        grad[j] = 0.5 * (diff[0] * wp[j, 1] - diff[1] * wp[j, 0])
    return grad


def loop_hessian(lengths, thetas):
    """Hessian of the chord-closed area, one pair of edges at a time."""
    n = len(thetas)
    w = lengths[:, None] * np.column_stack([np.cos(thetas), np.sin(thetas)])
    hess = np.zeros((n, n))
    prefix = np.vstack([np.zeros(2), np.cumsum(w[:-1], axis=0)])
    total_head = w[:-1].sum(axis=0)
    for j in range(n - 1):
        after = total_head - prefix[j] - w[j]
        diff = prefix[j] - after
        hess[j, j] = -0.5 * (diff[0] * w[j, 1] - diff[1] * w[j, 0])
        for k in range(j + 1, n - 1):
            value = 0.5 * (w[j, 0] * w[k, 1] - w[j, 1] * w[k, 0])
            hess[j, k] = value
            hess[k, j] = value
    return hess


def count_calls(monkeypatch, module, name):
    """Rebind ``module.name`` in every polyslope module that holds it to a
    counting wrapper; returns the list that grows by one per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module_name, held in list(sys.modules.items()):
        if module_name == "polyslope" or module_name.startswith("polyslope."):
            for attr, value in list(vars(held).items()):
                if value is original:
                    monkeypatch.setattr(held, attr, counted)
    return calls


class TestAreaChart:
    def test_array_forms_match_loops_and_differences(self):
        rng = np.random.default_rng(50)
        h_grad, h_hess = 1e-6, 1e-4
        for n in range(3, 16):
            for _ in range(20):
                lengths = rng.uniform(0.1, 2.0, n)
                thetas = rng.uniform(0.0, 2.0 * math.pi, n)
                grad = chain_area_gradient(lengths, thetas)
                hess = chain_area_hessian(lengths, thetas)
                assert np.array_equal(grad, loop_gradient(lengths, thetas))
                assert np.array_equal(hess, loop_hessian(lengths, thetas))
            steps = np.eye(n)
            fd_grad = np.array([
                chain_area(lengths, thetas + h_grad * e) - chain_area(lengths, thetas - h_grad * e)
                for e in steps
            ]) / (2.0 * h_grad)
            assert np.allclose(fd_grad, grad, rtol=0.0, atol=1e-7)
            fd_hess = np.array([[
                chain_area(lengths, thetas + h_hess * (a + b))
                - chain_area(lengths, thetas + h_hess * (a - b))
                - chain_area(lengths, thetas - h_hess * (a - b))
                + chain_area(lengths, thetas - h_hess * (a + b))
                for b in steps] for a in steps
            ]) / (4.0 * h_hess**2)
            assert np.allclose(fd_hess, hess, rtol=0.0, atol=1e-5)
            fd_jac = np.column_stack([
                closure_residual(lengths, thetas + h_grad * e)
                - closure_residual(lengths, thetas - h_grad * e)
                for e in steps
            ]) / (2.0 * h_grad)
            assert np.allclose(fd_jac, closure_jacobian(lengths, thetas), rtol=0.0, atol=1e-7)


class TestCriticalityResidual:
    def test_square_is_critical(self):
        square = PolygonChain(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        assert area_criticality_residual(square, [1, 1, 1, 1]) < 1e-10

    def test_pentagram_is_critical(self):
        polygon = PENTAGRAM.polygon
        assert area_criticality_residual(polygon, polygon.edge_lengths) < 1e-10

    def test_perturbed_square_is_not_critical(self):
        pushed = PolygonChain(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.05, 0.97], [0.0, 1.0]])
        )
        assert area_criticality_residual(pushed, pushed.edge_lengths) > 1e-3

    def test_length_mismatch_rejected(self):
        square = PolygonChain(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        for lengths in ([1, 1, 1, 1.01], [1, 1, 1, float("nan")]):
            with pytest.raises(LengthMismatch):
                area_criticality_residual(square, lengths)
        # One length off by 1e-12 of their sum is caught.
        for polygon in (square, PENTAGRAM.polygon):
            lengths = polygon.edge_lengths.copy()
            lengths[-1] += 1e-12 * float(np.sum(lengths))
            with pytest.raises(LengthMismatch):
                area_criticality_residual(polygon, lengths)


class TestAreaIndex:
    def test_convex_counterclockwise_is_max(self):
        rng = np.random.default_rng(44)
        for n in range(4, 8):
            while True:
                cyclic = random_cyclic_polygon(rng, n)
                inv = cyclic_invariants(cyclic)
                if inv.positive_edges == n and inv.winding == 1:
                    break
            assert area_morse_index_numeric(cyclic) == n - 3
            assert area_morse_index_formula(inv) == n - 3

    def test_convex_clockwise_is_min(self):
        rng = np.random.default_rng(45)
        while True:
            cyclic = random_cyclic_polygon(rng, 5)
            inv = cyclic_invariants(cyclic)
            if inv.positive_edges == 0 and inv.winding == -1:
                break
        assert area_morse_index_numeric(cyclic) == 0
        assert area_morse_index_formula(inv) == 0

    def test_reversed_square_formula(self):
        # e = 0, winding -1, negative tangent sum: 0 - 1 + 2 - 1 = 0.
        assert area_morse_index_formula(cyclic_invariants(SQUARE_REVERSED)) == 0

    def test_pentagram_index_zero(self):
        assert area_morse_index_numeric(PENTAGRAM) == 0
        assert area_morse_index_formula(cyclic_invariants(PENTAGRAM)) == 0

    def test_numeric_matches_formula_on_random_polygons(self):
        rng = np.random.default_rng(46)
        for _ in range(60):
            cyclic = random_cyclic_polygon(rng, int(rng.integers(4, 8)))
            inv = cyclic_invariants(cyclic)
            if bifurcation_test(inv):
                continue
            assert area_morse_index_numeric(cyclic) == area_morse_index_formula(inv)

    def test_dual_turn_data_equal_the_arc_accounting(self):
        # The invariants' former route, kept as the oracle of their dual turn
        # data and of the index by duality: the signed arcs (the arc on a
        # positive edge, the arc less 2pi on a negative one) add up to 2pi w,
        # the dual turns k = n - e + 2w half turns, and the index is
        # e - 1 - 2w - [B <= 0] with B = sum eps tan(alpha).
        rng = np.random.default_rng(52)
        polygons = []
        for phis in test_fuzz.ANGLES[test_fuzz.COUNT :]:
            try:
                polygons.append(CyclicPolygon.from_degrees(1.0, phis))
            except (CoincidentVertices, AntipodalVertices):
                pass
        polygons += [random_cyclic_polygon(rng, int(rng.integers(4, 13))) for _ in range(2000)]
        for n in rng.choice(STAR_SIZES, 600).tolist():
            polygons.append(random_star_polygon(rng, n, int(rng.integers(2, n - 1))))
        indexed = 0
        for cyclic in polygons:
            inv = cyclic_invariants(cyclic)
            arcs, n = cyclic.arcs, cyclic.n
            forward = arcs < math.pi
            turns = float(np.where(forward, arcs, arcs - 2.0 * math.pi).sum()) / (2.0 * math.pi)
            winding, e = round(turns), int(forward.sum())
            assert abs(turns - winding) < 1e-9
            assert (inv.winding, inv.positive_edges) == (winding, e), cyclic.phis
            assert inv.dual_half_turns == n - e + 2 * winding, cyclic.phis
            tangents = np.tan(np.minimum(arcs, 2.0 * math.pi - arcs) / 2.0)
            b = float((np.where(forward, 1.0, -1.0) * tangents).sum())
            if bifurcation_test(inv):
                continue
            assert area_morse_index_formula(inv) == e - 1 - 2 * winding - (b <= 0), cyclic.phis
            indexed += 1
        assert len(polygons) >= 4000 and indexed > 3900


class TestDuality:
    def test_pentagram_duality(self):
        report = duality_index_check(PENTAGRAM)
        assert report.mu_area_numeric == 0
        assert report.mu_area_formula == 0
        assert report.mu_dual_perimeter == 2
        assert report.identity_holds

    def test_convex_duality(self):
        rng = np.random.default_rng(47)
        for n in range(4, 7):
            while True:
                cyclic = random_cyclic_polygon(rng, n)
                inv = cyclic_invariants(cyclic)
                if inv.positive_edges == n and inv.winding == 1:
                    break
            report = duality_index_check(cyclic)
            assert report.mu_area_numeric == n - 3
            assert report.mu_dual_perimeter == 0
            assert report.identity_holds

    def test_reversed_pentagram(self):
        # All edges negatively oriented, winding -2: index 0 - 1 + 4 - 1 = 2.
        reversed_star = CyclicPolygon.from_degrees(1.0, [216, 72, 288, 144, 0])
        inv = cyclic_invariants(reversed_star)
        assert inv.positive_edges == 0
        assert inv.winding == -2
        assert area_morse_index_numeric(reversed_star) == 2
        assert area_morse_index_formula(inv) == 2
        report = duality_index_check(reversed_star)
        assert report.mu_dual_perimeter == 0
        assert report.identity_holds

    def test_dual_radii_in_own_chart(self):
        # The dual polygon is tangential for its own slope system with every
        # decomposition radius equal to +R.
        rng = np.random.default_rng(49)
        for _ in range(20):
            cyclic = random_cyclic_polygon(rng, int(rng.integers(4, 8)))
            dual = dual_polygon(cyclic)
            chart = build_chart(dual.slopes)
            radii = radii_of_polygon(chart, dual.polygon)
            assert np.allclose(radii, cyclic.radius, atol=1e-9 * cyclic.radius)

    def test_random_duality_identity(self):
        rng = np.random.default_rng(48)
        stars = 0
        for trial in range(80):
            if trial % 4 == 3:
                n = 5 if trial % 2 else 7
                cyclic = random_star_polygon(rng, n, 2)
                stars += 1
            else:
                cyclic = random_cyclic_polygon(rng, int(rng.integers(4, 8)))
            if bifurcation_test(cyclic_invariants(cyclic)):
                continue
            report = duality_index_check(cyclic)
            assert report.identity_holds
        assert stars >= 10

    def test_bifurcating_input_rejected(self):
        root = bisect_bifurcation_root()
        assert duality_index_check(bif_family(root)) is None

    def test_square_dual_index_is_zero(self):
        # The tangent lines at opposite vertices of the square are parallel,
        # so its dual slopes have no chart; the index needs none.
        report = duality_index_check(SQUARE)
        assert report.mu_area_numeric == report.mu_area_formula == 1
        assert report.mu_dual_perimeter == 0
        assert report.identity_holds

    def test_square_report_gets_dual_index_zero(self):
        indices = cyclic_report(1, [0, 90, 180, 270])["indices"]
        assert indices["mu_dual_perimeter"] == 0
        assert "dual_note" not in indices
        assert indices["identity_holds"] is True

    def test_dual_index_equals_the_dual_chart_sign_count(self):
        # Where the dual slopes have a chart, its point of r > 0 is the dual
        # polygon, whose index n - 3 - neg the signs of its p give.  The
        # polygons with a non-consecutive antipodal pair have none.
        rng = np.random.default_rng(50)
        charted = parallel = 0
        for trial in range(300):
            if trial % 3 == 2:
                cyclic = random_star_polygon(rng, 5 if trial % 2 else 7, 2)
            elif trial % 10 == 1:
                n = 2 * int(rng.integers(2, 5))
                phis = rng.uniform(0.0, 360.0, n // 2)
                cyclic = CyclicPolygon.from_degrees(1.0, np.append(phis, phis + 180.0))
            else:
                cyclic = random_cyclic_polygon(rng, int(rng.integers(4, 10)))
            report = duality_index_check(cyclic)
            if report is None:
                continue
            assert report.identity_holds
            try:
                chart = build_chart(cyclic.dual_slopes)
            except ParallelLines:
                parallel += 1
                continue
            neg = negative_count(chart.unit_perimeters.tolist(), chart.perimeter_sum)
            assert report.mu_dual_perimeter == cyclic.n - 3 - neg
            charted += 1
        assert charted > 150 and parallel > 10

    def test_each_index_computed_once(self, monkeypatch):
        # One closure basis per index, of the edges that are the vertex
        # differences, and no least-squares solve: the multiplier is in
        # closed form.  The dual index is the formula at the dual slopes'
        # half turns, and no critical point is built for it.  The slope
        # checks' residuals take closure bases too, so only the area index's
        # count.
        numeric = count_calls(monkeypatch, cyclic_module, "area_morse_index_numeric")
        frames, basis = [], cyclic_module.closure_basis
        monkeypatch.setattr(cyclic_module, "closure_basis", lambda a: frames.append(1) or basis(a))
        points = count_calls(monkeypatch, tangential_module, "tangential_critical_points")
        solves, lstsq = [], np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: solves.append(1) or lstsq(*a, **k))
        cyclic_report(1.0, [0, 144, 288, 72, 216])
        assert (len(numeric), len(frames), len(points), len(solves)) == (1, 1, 0, 0)
        result = run_sweep(1, 20)
        tally = next(t for t in result.tallies if t.name == "cyclic_indices")
        assert tally.passed + tally.failed > 0
        assert len(numeric) - 1 == len(frames) - 1 == tally.passed + tally.failed
        assert len(solves) == 0
