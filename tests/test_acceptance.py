"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, except that
criteria 2 and 3 read the sweep's Hessian and determinant bounds; the random
draws are seeded, so the suite is deterministic.
"""

import json
import math

import numpy as np

from polyslope import (
    PolygonChain,
    SlopeSystem,
    bifurcation_test,
    build_chart,
    cyclic_invariants,
    dual_polygon,
    hessian_det_identity,
    morse_index_eigen,
    oriented_area,
    signed_perimeter,
    tangential_critical_points,
)
from polyslope.cyclic import (
    area_morse_index_formula,
    area_morse_index_numeric,
    duality_index_check,
)
from polyslope.errors import Bifurcating, DegenerateCritical
from polyslope.randomgen import (
    random_convex_slope_system,
    random_cyclic_polygon,
    random_radii,
    random_slope_system,
    random_star_polygon,
    trial_rng,
)
from polyslope.slope_space import decomposition_polygons, polygon_from_radii
from polyslope.geometry import EPS
from polyslope.sweeps import DETERMINANT_ROUNDOFF, HESSIAN_ROUNDOFF, run_sweep
from polyslope.tangential import edge_hessians, tangential_residual

from families import (
    bif_family,
    bisect_bifurcation_root,
    bisect_family_root,
    family_perimeter_sum,
    family_system,
)

SEED = 20260810


def verdict(number: int, description: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    for message in failures[:10]:
        print(f"       {message}")
    assert not failures, f"criterion {number} failed: {failures[:5]}"


def test_criterion_01_critical_point_gradients():
    failures = []
    checked = 0
    for trial in range(1000):
        rng = trial_rng(SEED, 1, trial)
        n = int(rng.integers(4, 10))
        chart = build_chart(random_slope_system(rng, n))
        points = tangential_critical_points(chart)
        if not points:
            continue
        checked += 1
        for point in points:
            norm, bound, area_error, area_bound = tangential_residual(
                chart, point.polygon.vertices, point.inradius
            )
            if not norm < bound:
                failures.append(f"trial {trial}: gradient norm {norm:.3e} >= {bound:.3e} (n={n})")
            if not area_error <= area_bound:
                failures.append(f"trial {trial}: area off {area_error:.3e} > {area_bound:.3e}")
    verdict(
        1,
        f"edge-space gradient and shoelace area within their roundoff bounds at "
        f"both critical points ({checked} systems, n in [4,9])",
        failures,
    )
    assert checked >= 990


def test_criterion_02_hessian_closed_form():
    failures = []
    checked = 0
    for trial in range(200):
        rng = trial_rng(SEED, 2, trial)
        n = int(rng.integers(4, 9))
        chart = build_chart(random_slope_system(rng, n))
        points = tangential_critical_points(chart)
        if not points:
            continue
        checked += 1
        p = np.abs(chart.unit_perimeters)
        unit = HESSIAN_ROUNDOFF * EPS * p.sum() * p.max() / (abs(chart.perimeter_sum) * p[0])
        for closed, edge in zip(*edge_hessians(points)):
            error, bound = np.max(np.abs(edge - closed)), unit * np.max(np.abs(closed))
            if not error <= bound:
                failures.append(f"trial {trial}: entrywise error {error:.3e} > {bound:.3e} (n={n})")
    verdict(
        2,
        "closed-form Hessian matches the edge-space Hessian within its roundoff bound "
        f"{HESSIAN_ROUNDOFF:g} eps max|H| sum|p| max|p| / (|sum p| |p_1|) "
        f"({checked} systems, n in [4,8])",
        failures,
    )
    assert checked == 200


def test_criterion_03_determinant_identity():
    failures = []
    for trial in range(200):
        rng = trial_rng(SEED, 3, trial)
        n = int(rng.integers(4, 10))
        chart = build_chart(random_slope_system(rng, n))
        points = tangential_critical_points(chart)
        if not points:
            continue
        # The sweep's bound: the identity cancels toward the exceptional
        # locus and loses the chart's conditioning max|p| / |p_1|.
        p = np.abs(chart.unit_perimeters)
        locus = np.finfo(float).eps * np.sum(p) / abs(chart.perimeter_sum)
        bound = max(1e-9, DETERMINANT_ROUNDOFF * locus * p.max() / p[0])
        for point in points:
            lhs, rhs = hessian_det_identity(point)
            if abs(lhs - rhs) > bound * max(abs(lhs), abs(rhs)):
                failures.append(f"trial {trial}: {lhs!r} vs {rhs!r} (n={n})")
    verdict(
        3,
        "r^(n-3) det H matches the product formula within max(1e-9, 512 eps "
        "sum|p| max|p| / (|sum p| |p_1|)) relative (200 systems, n in [4,9])",
        failures,
    )


def test_criterion_04_index_agreement():
    failures = []
    degenerate = 0
    for trial in range(1000):
        rng = trial_rng(SEED, 4, trial)
        n = int(rng.integers(4, 10))
        chart = build_chart(random_slope_system(rng, n))
        points = tangential_critical_points(chart)
        if not points:
            continue
        indices = []
        for point in points:
            try:
                report = morse_index_eigen(point)
            except Exception as exc:  # degenerate Hessian is a failure signal
                degenerate += 1
                failures.append(f"trial {trial}: degenerate Hessian ({exc})")
                continue
            if not report.agreement:
                failures.append(
                    f"trial {trial}: eigen {report.index_eigen} != formula "
                    f"{report.index_formula} (n={n})"
                )
            indices.append(report.index_eigen)
        if len(indices) == 2 and indices[0] + indices[1] != n - 3:
            failures.append(f"trial {trial}: complement {indices} != {n - 3}")
    verdict(
        4,
        "eigenvalue index equals formula index at both points and the pair "
        "sums to n-3 (1000 trials)",
        failures,
    )
    assert degenerate == 0


def test_criterion_05_convex_sanity():
    failures = []
    for n in range(4, 10):
        for trial in range(10):
            rng = trial_rng(SEED, 5, n * 100 + trial)
            chart = build_chart(random_convex_slope_system(rng, n))
            points = tangential_critical_points(chart)
            if not points:
                failures.append(f"convex system unexpectedly exceptional (n={n})")
                continue
            for point in points:
                expected = 0 if point.inradius > 0 else n - 3
                report = morse_index_eigen(point)
                if report.index_eigen != expected or report.index_formula != expected:
                    failures.append(
                        f"n={n}: index {report.index_eigen}/{report.index_formula}, "
                        f"expected {expected}"
                    )
    verdict(
        5,
        "convex counterclockwise systems: index 0 at r>0 and n-3 at r<0 "
        "(n in [4,9], 10 each)",
        failures,
    )


def test_criterion_06_triangles():
    failures = []
    for trial in range(50):
        rng = trial_rng(SEED, 6, trial)
        chart = build_chart(random_slope_system(rng, 3))
        points = tangential_critical_points(chart)
        if not points:
            continue
        for point in points:
            report = morse_index_eigen(point)
            if point.hessian.shape != (0, 0):
                failures.append(f"trial {trial}: Hessian not empty")
            if report.index_eigen != 0 or report.index_formula != 0:
                failures.append(
                    f"trial {trial}: indices {report.index_eigen}/{report.index_formula}"
                )
    verdict(6, "n=3: empty Hessians, eigen and formula indices both 0", failures)


def test_criterion_07_chart_laws():
    failures = []
    for trial in range(500):
        rng = trial_rng(SEED, 7, trial)
        n = int(rng.integers(3, 13))
        chart = build_chart(random_slope_system(rng, n))
        radii = random_radii(rng, n - 2)
        polygon = polygon_from_radii(chart, radii)
        p = chart.unit_perimeters
        area = oriented_area(polygon)
        perim = signed_perimeter(polygon, chart.system)
        area_scale = max(1.0, 0.5 * float(np.sum(np.abs(p) * radii**2)))
        perim_scale = max(1.0, float(np.sum(np.abs(p * radii))))
        if abs(area - 0.5 * float(np.sum(p * radii**2))) > 1e-10 * area_scale:
            failures.append(f"trial {trial}: quadratic area law (n={n})")
        if abs(perim - float(np.sum(p * radii))) > 1e-10 * perim_scale:
            failures.append(f"trial {trial}: linear perimeter law (n={n})")
        triangles = [PolygonChain(v) for v in decomposition_polygons(chart, polygon)]
        tri_area = sum(oriented_area(t) for t in triangles)
        tri_perim = sum(
            signed_perimeter(t, SlopeSystem(chart.system.angles[[0, i + 1, i + 2]]))
            for i, t in enumerate(triangles)
        )
        if abs(tri_area - area) > 1e-10 * area_scale:
            failures.append(f"trial {trial}: area additivity (n={n})")
        if abs(tri_perim - perim) > 1e-10 * perim_scale:
            failures.append(f"trial {trial}: perimeter additivity (n={n})")
        points = tangential_critical_points(chart)
        if points:
            for point in points:
                if abs(point.area - 0.5 * point.perimeter * point.inradius) > 1e-10:
                    failures.append(f"trial {trial}: tangential area law (n={n})")
    verdict(
        7,
        "area/perimeter chart laws, decomposition additivity, and the "
        "tangential area relation hold to 1e-10 (500 evaluations)",
        failures,
    )


def test_criterion_08_signature_topology():
    failures = []
    for trial in range(500):
        rng = trial_rng(SEED, 8, trial)
        n = int(rng.integers(3, 13))
        system = random_slope_system(rng, n)
        # build_chart enforces the signature law internally.
        try:
            chart = build_chart(system)
        except Exception as exc:
            failures.append(f"trial {trial}: {exc}")
            continue
        from polyslope import turning_sum

        total, k, _ = turning_sum(system)
        if abs(total / math.pi - k) > 1e-9 * max(1.0, k):
            failures.append(f"trial {trial}: non-integral turning")
        positive = int(np.count_nonzero(chart.unit_perimeters > 0))
        if positive != k - 1:
            failures.append(f"trial {trial}: signature {positive} != {k - 1}")
        if n > 3:
            head = SlopeSystem(system.angles[:-1])
            tail = SlopeSystem(system.angles[[0, -2, -1]])
            rhs = turning_sum(head)[0] + turning_sum(tail)[0] - math.pi
            if abs(total - rhs) > 1e-9 * max(1.0, abs(total)):
                failures.append(f"trial {trial}: recursion off by {total - rhs:.2e}")
    verdict(
        8,
        "positive-perimeter count equals k-1 with k integral, and the "
        "turning recursion holds (500 systems, n in [3,12])",
        failures,
    )


def test_criterion_09_dual_perimeter():
    failures = []
    for trial in range(500):
        rng = trial_rng(SEED, 9, trial)
        n = int(rng.integers(4, 8))
        cyclic = random_cyclic_polygon(rng, n)
        inv = cyclic_invariants(cyclic)
        dual = dual_polygon(cyclic)
        measured = signed_perimeter(dual.polygon, dual.slopes)
        expected = 2.0 * cyclic.radius * inv.bifurcation_sum
        scale = 2.0 * cyclic.radius * inv.tangent_scale
        if abs(measured - expected) > 1e-9 * scale:
            failures.append(f"trial {trial}: perimeter law off (n={n})")
        if bifurcation_test(inv) != (abs(measured) < 1e-9 * scale):
            failures.append(f"trial {trial}: vanishing tests disagree (n={n})")
    # The constructed bifurcating polygon must trip all three tests at once.
    root = bisect_bifurcation_root()
    cyclic = bif_family(root)
    inv = cyclic_invariants(cyclic)
    dual = dual_polygon(cyclic)
    scale = 2.0 * cyclic.radius * inv.tangent_scale
    if not bifurcation_test(inv):
        failures.append("bifurcation root not detected")
    if abs(signed_perimeter(dual.polygon, dual.slopes)) >= 1e-9 * scale:
        failures.append("dual perimeter does not vanish at the root")
    try:
        area_morse_index_numeric(cyclic)
        failures.append("area Hessian did not degenerate at the root")
    except DegenerateCritical:
        pass
    verdict(
        9,
        "dual perimeter equals 2R * tangent sum to 1e-9 (500 polygons) and "
        "its vanishing coincides with the bifurcation test",
        failures,
    )


def test_criterion_10_cyclic_index_and_duality():
    failures = []
    high_winding = 0
    checked = 0
    for trial in range(200):
        rng = trial_rng(SEED, 10, trial)
        if trial % 5 == 4:
            n = 5 if trial % 2 else 7
            turns = 2 if n == 5 else int(rng.integers(2, 4))
            cyclic = random_star_polygon(rng, n, turns)
        else:
            n = int(rng.integers(4, 8))
            cyclic = random_cyclic_polygon(rng, n)
        inv = cyclic_invariants(cyclic)
        if bifurcation_test(inv):
            continue
        checked += 1
        if inv.winding >= 2:
            high_winding += 1
        try:
            numeric = area_morse_index_numeric(cyclic)
            formula = area_morse_index_formula(inv)
            report = duality_index_check(cyclic)
        except (Bifurcating, DegenerateCritical) as exc:
            failures.append(f"trial {trial}: unexpected degeneracy ({exc})")
            continue
        if numeric != formula:
            failures.append(f"trial {trial}: numeric {numeric} != formula {formula}")
        if not report.identity_holds:
            failures.append(
                f"trial {trial}: duality identity failed "
                f"({report.mu_area_numeric} vs n-3-{report.mu_dual_perimeter})"
            )
    if high_winding < 20:
        failures.append(f"only {high_winding} polygons with winding >= 2")
    verdict(
        10,
        f"numeric area index equals formula and the duality identity holds "
        f"({checked} cyclic polygons, {high_winding} with winding >= 2)",
        failures,
    )


def test_criterion_11_exceptional_family():
    failures = []
    root = bisect_family_root()
    band = 5e-14
    at_root = tangential_critical_points(family_system(root))
    if at_root != ():
        failures.append("critical points at the bisected root")
    for offset in (-1e-3, -1e-5, 1e-5, 1e-3):
        points = tangential_critical_points(family_system(root + offset))
        if not points:
            failures.append(f"critical points missing at offset {offset:+.0e}")
        else:
            signs = {math.copysign(1, p.area) for p in points}
            if len(signs) != 1:
                failures.append(f"area signs differ at offset {offset:+.0e}")
    lo_sum = family_perimeter_sum(root - band)
    hi_sum = family_perimeter_sum(root + band)
    if lo_sum * hi_sum > 0:
        failures.append("root bracket does not straddle the sign change")
    verdict(
        11,
        "a slope family crossing perimeter-sum zero has critical points on "
        "both sides and none at the bracketed root",
        failures,
    )


def test_criterion_12_sweep_determinism(capsys):
    from polyslope.cli import main

    def capture():
        code = main(["sweep", "--seed", "11", "--trials", "4", "--json"])
        return code, capsys.readouterr().out

    code1, out1 = capture()
    code2, out2 = capture()
    failures = []
    if code1 != 0 or code2 != 0:
        failures.append(f"sweep exit codes {code1}/{code2}")
    if out1 != out2:
        failures.append("sweep output differs across runs")
    direct = json.dumps(run_sweep(seed=11, trials=4).to_dict())
    if out1 != direct + "\n":
        failures.append("sweep output differs from the run_sweep result")
    verdict(
        12,
        "sweep output is byte-identical across repeated runs and equals the "
        "run_sweep result",
        failures,
    )
