"""Randomized invariant sweeps shared by the command line and the test suite.

Each check draws its own inputs from an independent seeded stream, verifies a
bundle of library invariants, and reports failure messages (an empty list
means the trial passed, None means the draw was skipped, e.g. an exceptional
slope system).  The acceptance suite runs the same checks at pinned trial
counts; the ``sweep`` command runs them at user-chosen counts with identical
semantics.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cyclic import (
    bifurcation_test,
    cyclic_invariants,
    dual_polygon,
    dual_slopes,
    duality_index_check,
)
from .errors import PolyslopeError
from .geometry import (
    TWO_PI,
    PolygonChain,
    SlopeSystem,
    diameters,
    oriented_areas,
    signed_perimeter,
    signed_perimeters,
    turning_sum,
    winding_number,
    winding_numbers,
)
from .randomgen import (
    random_convex_slope_system,
    random_cyclic_polygon,
    random_radii,
    random_slope_system,
    random_star_polygon,
    trial_rng,
)
from .slope_space import (
    build_chart,
    decomposition_lines,
    decomposition_polygons,
    normalized_coordinates,
    polygon_from_radii,
    radii_of_polygon,
)
from .tangential import (
    ExceptionalSpace,
    critical_gradient_norm,
    hessian_det_identity,
    hessian_error,
    morse_index_eigen,
    tangential_critical_points,
)
from .tolerances import DEFAULT_TOL, Tolerances

# Roundoff bounds, in units of eps sum|p| / |sum p|, of comparisons that cancel
# toward the exceptional locus: 17 to 30 times the worst error on sweep seeds
# 0..399 and next to the locus, never tighter than the fixed bounds they
# replaced.  The determinant also loses max|p| / |p_1|, the drawn chart's
# conditioning: without that factor its error reached 2.9e4, on a heavy tail.
DETERMINANT_ROUNDOFF = 512.0  # r**(n-3) det H, times max|p| / |p_1|; worst 17
TANGENTIAL_ROUNDOFF = 2048.0  # tangential area and perimeter; worst 122


def _draw_n(rng, n_range, lo, hi):
    a = max(n_range[0], lo)
    b = min(n_range[1], hi)
    if a > b:
        return None
    return int(rng.integers(a, b + 1))


def _nonexceptional_points(chart, tol):
    points = tangential_critical_points(chart, tol)
    return None if isinstance(points, ExceptionalSpace) else points


def _locus_roundoff(chart):
    """eps sum|p| / |sum p|, the roundoff of quantities that cancel to unit area."""
    scale = float(np.sum(np.abs(chart.unit_perimeters)))
    return float(np.finfo(float).eps) * scale / abs(chart.perimeter_sum)


def _draw_points(rng, n_range, hi, tol, draw):
    """(n, critical points) of a system of 4..hi lines from ``draw``, or None
    when no size fits or the system is exceptional."""
    n = _draw_n(rng, n_range, 4, hi)
    points = None if n is None else _nonexceptional_points(build_chart(draw(rng, n), tol), tol)
    return None if points is None else (n, points)


def check_critical_gradient(rng, n_range, tol):
    """Complex-step perimeter gradient vanishes at both critical points, to
    the roundoff bound of :func:`critical_gradient_norm` (c = 256)."""
    drawn = _draw_points(rng, n_range, 9, tol, random_slope_system)
    if drawn is None:
        return None
    n, points = drawn
    failures = []
    for point in points:
        norm, bound = critical_gradient_norm(point)
        if norm >= bound:
            failures.append(f"gradient norm {norm:.3e} at r={point.inradius:.4f} (n={n})")
    return failures


def check_hessian_difference(rng, n_range, tol):
    """Closed-form Hessian matches the hyper-dual Hessian to the roundoff
    bound of :func:`hessian_error`, c eps max|H| sum|p| / |sum p| with c = 512."""
    drawn = _draw_points(rng, n_range, 12, tol, random_slope_system)
    if drawn is None:
        return None
    n, points = drawn
    failures = []
    for point in points:
        error, bound = hessian_error(point)
        if error > bound:
            failures.append(
                f"hessian error {error:.3e} over bound {bound:.3e} (n={n}, r={point.inradius:.4f})"
            )
    return failures


def check_hessian_determinant(rng, n_range, tol):
    """r**(n-3) det H equals the closed product formula, relative to the
    larger side, within max(1e-9, c eps sum|p| max|p| / (|sum p| |p_1|)),
    c = 512."""
    drawn = _draw_points(rng, n_range, 9, tol, random_slope_system)
    if drawn is None:
        return None
    n, points = drawn
    failures = []
    for point in points:
        lhs, rhs = hessian_det_identity(point)
        p = np.abs(point.chart.unit_perimeters)
        bound = max(1e-9, DETERMINANT_ROUNDOFF * _locus_roundoff(point.chart) * p.max() / p[0])
        if abs(lhs - rhs) > bound * max(abs(lhs), abs(rhs)):
            failures.append(f"determinant identity off: {lhs!r} vs {rhs!r} (n={n})")
    return failures


def check_index_agreement(rng, n_range, tol):
    """Eigenvalue index equals the formula index; the two points complement."""
    drawn = _draw_points(rng, n_range, 9, tol, random_slope_system)
    if drawn is None:
        return None
    n, points = drawn
    failures = []
    indices = []
    for point in points:
        report = morse_index_eigen(point)
        if not report.agreement:
            failures.append(
                f"index mismatch eigen={report.index_eigen} formula={report.index_formula} (n={n})"
            )
        indices.append(report.index_eigen)
    if len(indices) == 2 and indices[0] + indices[1] != n - 3:
        failures.append(f"indices {indices} do not sum to n-3 (n={n})")
    return failures


def check_convex_indices(rng, n_range, tol):
    """Convex counterclockwise systems: index 0 at r>0 and n-3 at r<0."""
    drawn = _draw_points(rng, n_range, 9, tol, random_convex_slope_system)
    if drawn is None:
        return None
    n, points = drawn
    failures = []
    for point in points:
        expected = 0 if point.inradius > 0 else n - 3
        report = morse_index_eigen(point)
        if report.index_eigen != expected or report.index_formula != expected:
            failures.append(
                f"convex index {report.index_eigen}/{report.index_formula}, expected {expected} (n={n})"
            )
    return failures


def check_chart_identities(rng, n_range, tol):
    """Chart laws: quadratic area, linear perimeter, additivity, roundtrip and
    quadratic-form coordinates; at the tangential points, the closed-form
    vertices, area, perimeter and winding against one stacked reconstruction."""
    n = _draw_n(rng, n_range, 3, 12)
    if n is None:
        return None
    chart = build_chart(random_slope_system(rng, n), tol)
    radii = random_radii(rng, n - 2)
    points = _nonexceptional_points(chart, tol) or ()
    # Row 0 holds the drawn radii, each further row a tangential point's r_i = r.
    stack = np.array([radii, *(np.full(n - 2, point.inradius) for point in points)])
    rebuilt = polygon_from_radii(chart, stack, tol)
    angles = chart.system.angles
    areas = oriented_areas(rebuilt).tolist()
    perimeters = signed_perimeters(rebuilt, angles, tol).tolist()
    failures = []
    p = chart.unit_perimeters
    area, perim = areas[0], perimeters[0]
    area_sum = 0.5 * float(np.sum(p * radii**2))
    perim_sum = float(np.sum(p * radii))
    area_scale = max(1.0, 0.5 * float(np.sum(np.abs(p) * radii**2)))
    perim_scale = max(1.0, float(np.sum(np.abs(p * radii))))
    if abs(area - area_sum) > 1e-10 * area_scale:
        failures.append(f"quadratic area law off by {area - area_sum:.3e} (n={n})")
    if abs(perim - perim_sum) > 1e-10 * perim_scale:
        failures.append(f"linear perimeter law off by {perim - perim_sum:.3e} (n={n})")
    polygon = PolygonChain(rebuilt[0])
    triangles = decomposition_polygons(chart, polygon, tol)
    tri_area = sum(oriented_areas(triangles).tolist())
    tri_perim = sum(signed_perimeters(triangles, angles[decomposition_lines(n)], tol).tolist())
    if abs(tri_area - area) > 1e-10 * area_scale:
        failures.append(f"area additivity off by {tri_area - area:.3e} (n={n})")
    if abs(tri_perim - perim) > 1e-10 * perim_scale:
        failures.append(f"perimeter additivity off by {tri_perim - perim:.3e} (n={n})")
    recovered = radii_of_polygon(chart, polygon, tol)
    radii_scale = max(1.0, float(np.max(np.abs(radii))))
    if float(np.max(np.abs(recovered - radii))) > 1e-9 * radii_scale:
        failures.append(f"radii roundtrip off (n={n})")
    coords = normalized_coordinates(chart, polygon, tol)
    mask = chart.positive_mask
    quadratic = float(np.sum(coords.x[mask] ** 2) - np.sum(coords.x[~mask] ** 2))
    if abs(quadratic - area) > 1e-9 * area_scale:
        failures.append(f"coordinate quadratic form off by {quadratic - area:.3e} (n={n})")
    if not points:
        return failures
    scales = diameters(rebuilt).tolist()
    windings = winding_numbers(rebuilt[1:], [point.incenter for point in points], tol).tolist()
    # The area is +-1, so its absolute and relative errors agree.
    bound = max(1e-10, TANGENTIAL_ROUNDOFF * _locus_roundoff(chart))
    for k, point in enumerate(points, 1):
        gap = float(np.max(np.abs(rebuilt[k] - point.polygon.vertices)))
        if gap > 1e-10 * scales[k]:
            failures.append(f"tangential vertices off the reconstruction by {gap:.3e} (n={n})")
        if abs(areas[k] - point.area) > bound:
            failures.append(f"tangential area off the reconstruction (n={n})")
        if abs(perimeters[k] / point.perimeter - 1.0) > bound:
            failures.append(f"tangential perimeter off the reconstruction (n={n})")
        if windings[k - 1] != chart.winding:
            failures.append(f"tangential winding off the reconstruction (n={n})")
    return failures


def check_turning_signature(rng, n_range, tol):
    """Signature law, turning recursion, the parity of the right turns, and
    the chart's winding against the sum of turns wrapped to (-pi, pi)."""
    n = _draw_n(rng, n_range, 3, 12)
    if n is None:
        return None
    system = random_slope_system(rng, n)
    failures = []
    # build_chart raises SignatureMismatch when the sign count is off.
    chart = build_chart(system, tol)
    total, k, right = chart.angle_sum, chart.half_turns, chart.right_turns
    if not 1 <= k <= n - 1:
        failures.append(f"turning multiple {k} out of range (n={n})")
    if n > 3:
        head = SlopeSystem.from_angles(system.angles[:-1])
        tail = SlopeSystem.from_angles(system.angles[[0, -2, -1]])
        lhs = total
        rhs = turning_sum(head, tol)[0] + turning_sum(tail, tol)[0] - math.pi
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
            failures.append(f"turning recursion off by {lhs - rhs:.3e} (n={n})")
    if (k - right) % 2:
        failures.append(f"k = {k} and RT = {right} differ in parity (n={n})")
    angles = system.angles
    turns = (np.roll(angles, -1) - angles + math.pi) % TWO_PI - math.pi
    winding = round(float(np.sum(turns)) / TWO_PI)
    if chart.winding != winding:
        failures.append(f"chart winding {chart.winding} != wrapped-turn sum {winding} (n={n})")
    return failures


def check_dual_perimeter(rng, n_range, tol):
    """Dual signed perimeter equals 2R * bifurcation sum; vanishing matches."""
    n = _draw_n(rng, n_range, 4, 7)
    if n is None:
        return None
    cyclic = random_cyclic_polygon(rng, n)
    inv = cyclic_invariants(cyclic, tol)
    dual = dual_polygon(cyclic)
    failures = []
    measured = signed_perimeter(dual.polygon, dual.slopes, tol)
    expected = 2.0 * cyclic.radius * inv.bifurcation_sum
    scale = 2.0 * cyclic.radius * float(np.sum(np.abs(np.tan(inv.half_angles))))
    if abs(measured - expected) > 1e-9 * scale:
        failures.append(f"dual perimeter {measured!r} != 2RB {expected!r} (n={n})")
    bif = bifurcation_test(inv, tol)
    dual_vanishes = abs(measured) < tol.bifurcation * scale
    if bif != dual_vanishes:
        failures.append(f"bifurcation test {bif} disagrees with dual perimeter (n={n})")
    lengths = cyclic.polygon.edge_lengths
    if float(np.max(np.abs(lengths - 2.0 * cyclic.radius * np.sin(inv.half_angles)))) > (
        1e-12 * cyclic.radius
    ):
        failures.append(f"chord-length law violated (n={n})")
    if inv.winding != winding_number(cyclic.polygon, cyclic.center, tol):
        failures.append(f"winding mismatch (n={n})")
    return failures


def check_cyclic_indices(rng, n_range, tol):
    """Numeric area index equals the formula and the duality identity holds."""
    n = _draw_n(rng, n_range, 4, 7)
    if n is None:
        return None
    if n in (5, 7) and rng.random() < 0.25:
        turns = 2 if n == 5 else int(rng.integers(2, 4))
        cyclic = random_star_polygon(rng, n, turns)
    else:
        cyclic = random_cyclic_polygon(rng, n)
    inv = cyclic_invariants(cyclic, tol)
    if bifurcation_test(inv, tol):
        return None
    report = duality_index_check(cyclic, inv, dual_slopes(cyclic), tol)
    numeric, formula = report.mu_area_numeric, report.mu_area_formula
    failures = []
    if numeric != formula:
        failures.append(f"area index numeric {numeric} != formula {formula} (n={n})")
    if report.dual_note is not None:
        failures.append(report.dual_note)
    elif not report.identity_holds:
        failures.append(
            f"duality identity failed: {numeric} vs "
            f"n-3-{report.mu_dual_perimeter} (n={n})"
        )
    return failures


CHECKS = (
    ("critical_gradient", check_critical_gradient),
    ("hessian_difference", check_hessian_difference),
    ("hessian_determinant", check_hessian_determinant),
    ("index_agreement", check_index_agreement),
    ("convex_indices", check_convex_indices),
    ("chart_identities", check_chart_identities),
    ("turning_signature", check_turning_signature),
    ("dual_perimeter", check_dual_perimeter),
    ("cyclic_indices", check_cyclic_indices),
)


@dataclass
class CheckTally:
    name: str
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)


@dataclass
class SweepResult:
    seed: int
    trials: int
    n_range: tuple[int, int]
    tallies: list

    @property
    def total_failed(self) -> int:
        return sum(t.failed for t in self.tallies)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "n_min": self.n_range[0],
            "n_max": self.n_range[1],
            "checks": [
                {
                    "name": t.name,
                    "passed": t.passed,
                    "failed": t.failed,
                    "skipped": t.skipped,
                    "failures": list(t.failures),
                }
                for t in self.tallies
            ],
            "all_passed": self.total_failed == 0,
        }

    def format_text(self) -> str:
        lines = [
            f"sweep seed={self.seed} trials={self.trials} "
            f"n={self.n_range[0]}..{self.n_range[1]}"
        ]
        for t in self.tallies:
            lines.append(
                f"  {t.name}: passed {t.passed}, failed {t.failed}, skipped {t.skipped}"
            )
            for message in t.failures:
                lines.append(f"    FAIL {message}")
        lines.append("result: " + ("PASS" if self.total_failed == 0 else "FAIL"))
        return "\n".join(lines)


def run_sweep(
    seed: int,
    trials: int,
    n_range: tuple[int, int] = (4, 9),
    tol: Tolerances = DEFAULT_TOL,
) -> SweepResult:
    """Run every check ``trials`` times with independent seeded streams.

    Results are deterministic functions of (seed, trials, n_range, tol): each
    (check, trial) pair owns its own random stream, so no trial's outcome
    depends on the order in which the trials run.  A library error raised
    inside a check counts as one failed trial, named with the check.
    """
    tallies = []
    for check_index, (name, func) in enumerate(CHECKS):
        tally = CheckTally(name)
        for trial in range(trials):
            try:
                outcome = func(trial_rng(seed, check_index, trial), n_range, tol)
            except PolyslopeError as exc:
                outcome = [f"{name} raised {type(exc).__name__}: {exc}"]
            if outcome is None:
                tally.skipped += 1
            elif outcome:
                tally.failed += 1
                tally.failures.extend(outcome)
            else:
                tally.passed += 1
        tallies.append(tally)
    return SweepResult(seed=seed, trials=trials, n_range=tuple(n_range), tallies=tallies)
