"""Randomized invariant sweeps shared by the command line and the test suite.

Each check draws its own inputs from an independent seeded stream, verifies a
bundle of library invariants, and returns one (label, error, bound) row per
comparison, or None when it skips the draw (an exceptional slope system, a
bifurcating polygon).  :func:`run_sweep` alone judges the rows: a row passes
when ``error <= bound``, so a NaN error fails.  The acceptance suite runs the
same checks at pinned trial counts; the ``sweep`` command runs them at
user-chosen counts with identical semantics.
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
    _chart_coordinates,
    _decomposition_radii,
    _decomposition_triangles,
    _line_offsets,
    build_chart,
    decomposition_lines,
    polygon_from_radii,
)
from .tangential import (
    critical_gradient_norms,
    hessian_det_identity,
    hessian_errors,
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
# The dual's signed perimeter against 2R B, in units of eps 2R sum|tan alpha|:
# the worst error was 48 units on sweep seeds 0..399 and 60 on seeds
# 400..2999 (n 4..7), so a perimeter off by one part in a million fails
# wherever |B| exceeds 2.3e-7 sum|tan alpha|.
DUAL_PERIMETER_ROUNDOFF = 1024.0


def _locus_roundoff(chart):
    """eps sum|p| / |sum p|, the roundoff of quantities that cancel to unit area."""
    scale = float(np.sum(np.abs(chart.unit_perimeters)))
    return float(np.finfo(float).eps) * scale / abs(chart.perimeter_sum)


def check_critical_gradient(rng, n, tol):
    """Complex-step perimeter gradient vanishes at both critical points, to
    the roundoff bound of :func:`critical_gradient_norms` (c = 256)."""
    points = tangential_critical_points(build_chart(random_slope_system(rng, n), tol), tol)
    if not points:
        return None
    return [("gradient norm", *row) for row in critical_gradient_norms(points)]


def check_hessian_difference(rng, n, tol):
    """Closed-form Hessian matches the hyper-dual Hessian to the roundoff
    bound of :func:`hessian_errors`, c eps max|H| sum|p| / |sum p| with c = 512."""
    points = tangential_critical_points(build_chart(random_slope_system(rng, n), tol), tol)
    if not points:
        return None
    return [("hessian error", *row) for row in hessian_errors(points)]


def check_hessian_determinant(rng, n, tol):
    """r**(n-3) det H equals the closed product formula, relative to the
    larger side, within max(1e-9, c eps sum|p| max|p| / (|sum p| |p_1|)),
    c = 512."""
    rows = []
    for point in tangential_critical_points(build_chart(random_slope_system(rng, n), tol), tol):
        lhs, rhs = hessian_det_identity(point)
        p = np.abs(point.chart.unit_perimeters)
        bound = max(1e-9, DETERMINANT_ROUNDOFF * _locus_roundoff(point.chart) * p.max() / p[0])
        scaled = bound * max(abs(lhs), abs(rhs))
        rows.append(("determinant identity off", abs(lhs - rhs), scaled))
    return rows or None


def check_index_agreement(rng, n, tol):
    """Eigenvalue index equals the formula index; the two points complement."""
    points = tangential_critical_points(build_chart(random_slope_system(rng, n), tol), tol)
    reports = [morse_index_eigen(point) for point in points]
    if not reports:
        return None
    total = sum(report.index_eigen for report in reports)
    return [
        *(("index mismatch", abs(r.index_eigen - r.index_formula), 0) for r in reports),
        ("index sum off n-3", abs(total - (n - 3)), 0),
    ]


def check_convex_indices(rng, n, tol):
    """Convex counterclockwise systems: index 0 at r>0 and n-3 at r<0."""
    rows = []
    chart = build_chart(random_convex_slope_system(rng, n), tol)
    for point in tangential_critical_points(chart, tol):
        expected = 0 if point.inradius > 0 else n - 3
        report = morse_index_eigen(point)
        error = max(abs(report.index_eigen - expected), abs(report.index_formula - expected))
        rows.append(("convex index off", error, 0))
    return rows or None


def check_chart_identities(rng, n, tol):
    """Chart laws: quadratic area, linear perimeter, additivity, roundtrip and
    quadratic-form coordinates; at the tangential points, the closed-form
    vertices, area, perimeter and winding against one stacked reconstruction."""
    chart = build_chart(random_slope_system(rng, n), tol)
    radii = random_radii(rng, n - 2)
    points = tangential_critical_points(chart, tol)
    # Row 0 holds the drawn radii, each further row a tangential point's r_i = r.
    stack = np.array([radii, *(np.full(n - 2, point.inradius) for point in points)])
    rebuilt = polygon_from_radii(chart, stack, tol)
    angles = chart.system.angles
    areas = oriented_areas(rebuilt).tolist()
    perimeters = signed_perimeters(rebuilt, angles, tol).tolist()
    p = chart.unit_perimeters
    area, perim = areas[0], perimeters[0]
    area_sum = 0.5 * float(np.sum(p * radii**2))
    perim_sum = float(np.sum(p * radii))
    area_scale = max(1.0, 0.5 * float(np.sum(np.abs(p) * radii**2)))
    perim_scale = max(1.0, float(np.sum(np.abs(p * radii))))
    # Row 0 is checked; its line offsets give the triangles, radii and coordinates.
    offsets = _line_offsets(chart, rebuilt[0], tol)
    triangles = _decomposition_triangles(chart, offsets, tol)
    tri_area = sum(oriented_areas(triangles).tolist())
    tri_perim = sum(signed_perimeters(triangles, angles[decomposition_lines(n)], tol).tolist())
    recovered = _decomposition_radii(chart, offsets)
    coords = _chart_coordinates(chart, rebuilt[0], offsets)
    mask = chart.positive_mask
    quadratic = float(np.sum(coords.x[mask] ** 2) - np.sum(coords.x[~mask] ** 2))
    radii_scale = max(1.0, float(np.max(np.abs(radii))))
    rows = [
        ("quadratic area law off", abs(area - area_sum), 1e-10 * area_scale),
        ("linear perimeter law off", abs(perim - perim_sum), 1e-10 * perim_scale),
        ("area additivity off", abs(tri_area - area), 1e-10 * area_scale),
        ("perimeter additivity off", abs(tri_perim - perim), 1e-10 * perim_scale),
        ("radii roundtrip off", float(np.max(np.abs(recovered - radii))), 1e-9 * radii_scale),
        ("coordinate quadratic form off", abs(quadratic - area), 1e-9 * area_scale),
    ]
    if not points:
        return rows
    scales = diameters(rebuilt).tolist()
    windings = winding_numbers(rebuilt[1:], [point.incenter for point in points]).tolist()
    # The area is +-1, so its absolute and relative errors agree.
    bound = max(1e-10, TANGENTIAL_ROUNDOFF * _locus_roundoff(chart))
    for k, point in enumerate(points, 1):
        gap = float(np.max(np.abs(rebuilt[k] - point.polygon.vertices)))
        rows += [
            ("tangential vertices off", gap, 1e-10 * scales[k]),
            ("tangential area off", abs(areas[k] - point.area), bound),
            ("tangential perimeter off", abs(perimeters[k] / point.perimeter - 1.0), bound),
            ("tangential winding off", abs(windings[k - 1] - chart.winding), 0),
        ]
    return rows


def check_turning_signature(rng, n, tol):
    """Signature law, turning recursion, the parity of the right turns, and
    the chart's winding against the sum of turns wrapped to (-pi, pi)."""
    system = random_slope_system(rng, n)
    # build_chart raises SignatureMismatch when the sign count is off.
    chart = build_chart(system, tol)
    total, k, right = chart.angle_sum, chart.half_turns, chart.right_turns
    angles = system.angles
    turns = (np.roll(angles, -1) - angles + math.pi) % TWO_PI - math.pi
    winding = round(float(np.sum(turns)) / TWO_PI)
    rows = [
        ("turning multiple out of range", max(1 - k, k - (n - 1), 0), 0),
        ("turn parity off", (k - right) % 2, 0),
        ("chart winding off wrapped turns", abs(chart.winding - winding), 0),
    ]
    if n > 3:
        head = SlopeSystem.from_angles(angles[:-1])
        tail = SlopeSystem.from_angles(angles[[0, -2, -1]])
        rhs = turning_sum(head)[0] + turning_sum(tail)[0] - math.pi
        rows.append(("turning recursion off", abs(total - rhs), 1e-9 * max(1.0, abs(total))))
    return rows


def check_dual_perimeter(rng, n, tol):
    """Dual signed perimeter equals 2R * bifurcation sum, to c eps 2R
    sum|tan alpha| with c = 1024; vanishing matches."""
    cyclic = random_cyclic_polygon(rng, n)
    inv = cyclic_invariants(cyclic)
    dual = dual_polygon(cyclic)
    measured = signed_perimeter(dual.polygon, dual.slopes, tol)
    expected = 2.0 * cyclic.radius * inv.bifurcation_sum
    scale = 2.0 * cyclic.radius * float(np.sum(np.abs(np.tan(inv.half_angles))))
    dual_bound = DUAL_PERIMETER_ROUNDOFF * float(np.finfo(float).eps) * scale
    bif = bifurcation_test(inv, tol)
    dual_vanishes = abs(measured) < tol.bifurcation * scale
    chords = 2.0 * cyclic.radius * np.sin(inv.half_angles)
    chord_error = float(np.max(np.abs(cyclic.polygon.edge_lengths - chords)))
    winding = winding_number(cyclic.polygon, cyclic.center)
    return [
        ("dual perimeter off 2RB", abs(measured - expected), dual_bound),
        ("bifurcation test off dual perimeter", int(bif != dual_vanishes), 0),
        ("chord-length law off", chord_error, 1e-12 * cyclic.radius),
        ("winding mismatch", abs(inv.winding - winding), 0),
    ]


def check_cyclic_indices(rng, n, tol):
    """Numeric area index equals the formula and the duality identity holds."""
    if n in (5, 7) and rng.random() < 0.25:
        turns = 2 if n == 5 else int(rng.integers(2, 4))
        cyclic = random_star_polygon(rng, n, turns)
    else:
        cyclic = random_cyclic_polygon(rng, n)
    inv = cyclic_invariants(cyclic)
    if bifurcation_test(inv, tol):
        return None
    report = duality_index_check(cyclic, inv, dual_slopes(cyclic), tol)
    numeric, dual = report.mu_area_numeric, report.mu_dual_perimeter
    return [
        ("area index numeric off formula", abs(numeric - report.mu_area_formula), 0),
        ("dual index withheld", 1, 0)
        if dual is None
        else ("duality identity off", abs(numeric - (n - 3 - dual)), 0),
    ]


def _sized(body, lo, hi):
    """``body(rng, n, tol)`` as a sweep check: n is drawn from lo..hi, clipped
    to the sweep's n range, as the trial's first draw.  Returns (n, rows), or
    None when no size fits or ``body`` skips the draw."""

    def check(rng, n_range, tol):
        a, b = max(n_range[0], lo), min(n_range[1], hi)
        if a > b:
            return None
        n = int(rng.integers(a, b + 1))
        rows = body(rng, n, tol)
        return None if rows is None else (n, rows)

    return check


# Each check with the polygon sizes it draws, before the sweep's n range clips them.
CHECKS = tuple(
    (name, _sized(body, lo, hi))
    for name, body, lo, hi in (
        ("critical_gradient", check_critical_gradient, 4, 9),
        ("hessian_difference", check_hessian_difference, 4, 12),
        ("hessian_determinant", check_hessian_determinant, 4, 9),
        ("index_agreement", check_index_agreement, 4, 9),
        ("convex_indices", check_convex_indices, 4, 9),
        ("chart_identities", check_chart_identities, 3, 12),
        ("turning_signature", check_turning_signature, 3, 12),
        ("dual_perimeter", check_dual_perimeter, 4, 7),
        ("cyclic_indices", check_cyclic_indices, 4, 7),
    )
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
    depends on the order in which the trials run.  This is the one place
    that judges a row: it passes when ``error <= bound``, so a NaN error
    fails.  A trial fails when any row fails, and a library error raised
    inside a check counts as one failed trial, named with the check.
    """
    tallies = []
    for check_index, (name, func) in enumerate(CHECKS):
        tally = CheckTally(name)
        for trial in range(trials):
            try:
                outcome = func(trial_rng(seed, check_index, trial), n_range, tol)
            except PolyslopeError as exc:
                failures = [f"{name} raised {type(exc).__name__}: {exc}"]
            else:
                if outcome is None:
                    tally.skipped += 1
                    continue
                n, rows = outcome
                failures = [
                    f"{label} {error:.3e} over bound {bound:.3e} (n={n})"
                    for label, error, bound in rows
                    if not error <= bound
                ]
            if failures:
                tally.failed += 1
                tally.failures.extend(failures)
            else:
                tally.passed += 1
        tallies.append(tally)
    return SweepResult(seed=seed, trials=trials, n_range=tuple(n_range), tallies=tallies)
