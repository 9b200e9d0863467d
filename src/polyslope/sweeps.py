"""Randomized invariant sweeps shared by the command line and the test suite.

Each check draws its own inputs from an independent seeded stream, verifies a
bundle of library invariants, and returns one (label, error, bound) row per
comparison, or None when it skips the draw (an exceptional slope system, a
bifurcating polygon).  :func:`run_sweep` alone judges the rows: a row passes
when ``error <= bound``, so a NaN error fails.  The acceptance suite runs the
same checks at pinned trial counts; the ``sweep`` command runs them at
user-chosen counts with identical semantics.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .cyclic import bifurcation_test, dual_polygon, duality_index_check, within_bifurcation_band
from .errors import PolyslopeError
from .geometry import (
    EPS,
    INTEGRAL_SUM,
    TWO_PI,
    _cycled,
    edge_offsets,
    line_vertices,
    polygon_measures,
    tangential_polygons,
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
    _reconstruction,
    build_chart,
    decomposition_lines,
    topology_report,
    tritangent_circle,
)
from .tangential import (
    edge_hessians,
    hessian_det_identities,
    index_reports,
    tangential_critical_points,
    tangential_residual,
)
from .tolerances import DEFAULT_TOL, Tolerances

# Roundoff bounds, in units of eps sum|p| / |sum p|, of comparisons that cancel
# toward the exceptional locus: 13 to 30 times the worst error on sweep seeds
# 0..399 and next to the locus, never tighter than the fixed bounds they
# replaced.  The determinant also loses max|p| / |p_1|, the drawn chart's
# conditioning: without that factor its error reached 2.9e4, on a heavy tail.
DETERMINANT_ROUNDOFF = 512.0  # r**(n-3) det H, times max|p| / |p_1|; worst 17
HESSIAN_ROUNDOFF = 1024.0  # edge-space Hessian, times max|H| max|p| / |p_1|; worst 78
TANGENTIAL_ROUNDOFF = 2048.0  # tangential area and perimeter; worst 122
# The dual's signed perimeter against 2R B, in units of eps 2R sum|tan alpha|:
# the worst error was 48 units on sweep seeds 0..399 and 60 on seeds
# 400..2999 (n 4..7), so a perimeter off by one part in a million fails
# wherever |B| exceeds 2.3e-7 sum|tan alpha|.
DUAL_PERIMETER_ROUNDOFF = 1024.0


def _locus_roundoff(chart):
    """eps sum|p| / |sum p|, the roundoff of quantities that cancel to unit area."""
    scale = float(np.abs(chart.unit_perimeters).sum())
    return EPS * scale / abs(chart.perimeter_sum)


def check_critical_gradient(rng, n, tol):
    """A slopes report's edge-space checks (:func:`tangential_residual`) on
    the r > 0 polygon, which serve both points: gradient and shoelace area."""
    points = tangential_critical_points(build_chart(random_slope_system(rng, n), tol))
    if not points:
        return None
    point = points[0]
    residual = tangential_residual(point.chart, point.vertices, point.inradius)
    return [("gradient norm", *residual[:2]), ("shoelace area off", *residual[2:])]


def check_hessian_difference(rng, n, tol):
    """Closed-form Hessian matches the edge-space one of :func:`edge_hessians`
    to c eps max|H| sum|p| max|p| / (|sum p| |p_1|), c = 1024."""
    points = tangential_critical_points(build_chart(random_slope_system(rng, n), tol))
    if not points:
        return None
    p = np.abs(points[0].chart.unit_perimeters)
    bound = HESSIAN_ROUNDOFF * _locus_roundoff(points[0].chart) * p.max() / p[0]
    closed, edge = edge_hessians(points)
    errors = np.abs(edge - closed).max(axis=(1, 2)).tolist()
    bounds = (bound * np.abs(closed).max(axis=(1, 2))).tolist()
    return [("hessian error", error, bound) for error, bound in zip(errors, bounds)]


def check_hessian_determinant(rng, n, tol):
    """r**(n-3) det H equals the closed product formula, relative to the
    larger side, within max(1e-9, c eps sum|p| max|p| / (|sum p| |p_1|)),
    c = 512."""
    points = tangential_critical_points(build_chart(random_slope_system(rng, n), tol))
    if not points:
        return None
    chart = points[0].chart
    p = np.abs(chart.unit_perimeters)
    bound = max(1e-9, DETERMINANT_ROUNDOFF * _locus_roundoff(chart) * p.max() / p[0])
    return [
        ("determinant identity off", abs(lhs - rhs), bound * max(abs(lhs), abs(rhs)))
        for lhs, rhs in hessian_det_identities(points)
    ]


def check_index_agreement(rng, n, tol):
    """The formula index equals the edge-space inertia and agrees with it,
    and the area form's inertia on ker U equals the positive component's
    (sphere_dim + 1, disc_dim), that is (k - 1, n - k - 1)."""
    chart = build_chart(random_slope_system(rng, n), tol)
    points = tangential_critical_points(chart)
    if not points:
        return None
    basis = chart.closure_space
    signature = np.linalg.eigvalsh(basis.T @ chart.area_form @ basis)
    positive = topology_report(chart).positive_component
    positives, negatives = int((signature > 0).sum()), int((signature < 0).sum())
    off = abs(positives - positive.sphere_dim - 1) + abs(negatives - positive.disc_dim)
    rows = [
        ("index mismatch", max(abs(r.index_eigen - r.index_formula), int(not r.agreement)), 0)
        for r in index_reports(points, points[0].vertices)
    ]
    return rows + [("area signature off topology", off, 0)]


def check_convex_indices(rng, n, tol):
    """Convex counterclockwise systems: index 0 at r>0 and n-3 at r<0."""
    points = tangential_critical_points(build_chart(random_convex_slope_system(rng, n), tol))
    if not points:
        return None
    rows = []
    for point, report in zip(points, index_reports(points, points[0].vertices)):
        expected = 0 if point.inradius > 0 else n - 3
        error = max(abs(report.index_eigen - expected), abs(report.index_formula - expected))
        rows.append(("convex index off", error, 0))
    return rows


def check_chart_identities(rng, n, tol):
    """Chart laws: quadratic area, linear perimeter, additivity, roundtrip and
    quadratic-form coordinates; at the tangential points, the closed-form
    vertices, area, perimeter and winding against one stacked reconstruction."""
    chart = build_chart(random_slope_system(rng, n), tol)
    radii = random_radii(rng, n - 2)
    points = tangential_critical_points(chart)
    # Row 0 holds the drawn radii, each further row a tangential point's r_i = r.
    # The reconstruction measures every row's area, signed perimeter and
    # diameter in one edge pass, holding each edge to its slope, and returns
    # the chart-law sums (and sums of |terms|) it checked them by.
    stack = np.empty((1 + len(points), n - 2))
    stack[0], stack[1:] = radii, np.reshape([point.inradius for point in points], (-1, 1))
    rebuilt, areas, perimeters, sizes, sums, scales = _reconstruction(chart, stack)
    areas, perimeters = areas.tolist(), perimeters.tolist()
    area, perim = areas[0], perimeters[0]
    area_sum, perim_sum = sums[:, 0].tolist()
    area_scale, perim_scale = np.maximum(1.0, scales[:, 0]).tolist()
    # Row 0's line offsets give the triangles, radii and coordinates.
    angles = chart.system.angles
    lines = decomposition_lines(n)
    triples, offsets = angles[lines], edge_offsets(rebuilt[0], angles)[lines]
    triangles = line_vertices(triples, offsets, tol)
    tri_areas, tri_perims, _ = polygon_measures(triangles, triples, tol)
    tri_area, tri_perim = sum(tri_areas.tolist()), sum(tri_perims.tolist())
    recovered = tritangent_circle(triples, offsets)[1]
    x = _chart_coordinates(chart, rebuilt[0], offsets[0, 0])
    quadratic = float(np.sign(chart.unit_perimeters) * x @ x)
    radii_scale = max(1.0, float(np.abs(radii).max()))
    rows = [
        ("quadratic area law off", abs(area - area_sum), 1e-10 * area_scale),
        ("linear perimeter law off", abs(perim - perim_sum), 1e-10 * perim_scale),
        ("area additivity off", abs(tri_area - area), 1e-10 * area_scale),
        ("perimeter additivity off", abs(tri_perim - perim), 1e-10 * perim_scale),
        ("radii roundtrip off", float(np.abs(recovered - radii).max()), 1e-9 * radii_scale),
        ("coordinate quadratic form off", abs(quadratic - area), 1e-9 * area_scale),
    ]
    if not points:
        return rows
    sizes = sizes.tolist()
    incenters = [point.incenter for point in points]
    polygons = tangential_polygons(angles, incenters, [point.inradius for point in points])
    gaps = np.abs(rebuilt[1:] - polygons).max(axis=(-2, -1)).tolist()
    windings = winding_numbers(rebuilt[1:], incenters).tolist()
    # The area is +-1, so its absolute and relative errors agree.
    bound = max(1e-10, TANGENTIAL_ROUNDOFF * _locus_roundoff(chart))
    for k, (point, gap) in enumerate(zip(points, gaps), 1):
        rows += [
            ("tangential vertices off", gap, 1e-10 * sizes[k]),
            ("tangential area off", abs(areas[k] - point.area), bound),
            ("tangential perimeter off", abs(perimeters[k] / point.perimeter - 1.0), bound),
            ("tangential winding off", abs(windings[k - 1] - chart.winding), 0),
        ]
    return rows


def check_turning_signature(rng, n, tol):
    """The range of k, the parity of the right turns, the chart's winding
    against the sum of turns wrapped to (-pi, pi), and its angle sum k pi
    against the line turns (s_{i+1} - s_i) mod pi summed in floats; the
    signature, k - 1 positive p_i, is a Tier-1 property of every chart."""
    system = random_slope_system(rng, n)
    chart = build_chart(system, tol)
    k, right = chart.half_turns, chart.right_turns
    steps = _cycled(system.angles) - system.angles
    line_turns = float((steps % math.pi).sum())
    winding = round(float(((steps + math.pi) % TWO_PI - math.pi).sum()) / TWO_PI)
    bound = INTEGRAL_SUM * n * EPS * max(1, k) * math.pi
    return [
        ("turning multiple out of range", max(1 - k, k - (n - 1), 0), 0),
        ("turn parity off", (k - right) % 2, 0),
        ("chart winding off wrapped turns", abs(chart.winding - winding), 0),
        ("angle sum off its line turns", abs(chart.angle_sum - line_turns), bound),
    ]


def check_dual_perimeter(rng, n, tol):
    """Dual signed perimeter equals 2R * bifurcation sum, to c eps 2R
    sum|tan alpha| with c = 1024; vanishing, within the bifurcation band,
    matches."""
    cyclic = random_cyclic_polygon(rng, n)
    inv = cyclic.invariants
    measured = dual_polygon(cyclic, tol).signed_perimeter
    expected = 2.0 * cyclic.radius * inv.bifurcation_sum
    scale = 2.0 * cyclic.radius * inv.tangent_scale
    dual_bound = DUAL_PERIMETER_ROUNDOFF * EPS * scale
    bif = bifurcation_test(inv, tol)
    dual_vanishes = within_bifurcation_band(measured, scale, tol)
    chords = 2.0 * cyclic.radius * np.sin(inv.half_angles)
    chord_error = float(np.abs(cyclic.polygon.edge_lengths - chords).max())
    winding = winding_number(cyclic.polygon, cyclic.center)
    return [
        ("dual perimeter off 2RB", abs(measured - expected), dual_bound),
        ("bifurcation test off dual perimeter", int(bif != dual_vanishes), 0),
        ("chord-length law off", chord_error, 1e-12 * cyclic.radius),
        ("winding mismatch", abs(inv.winding - winding), 0),
    ]


def check_cyclic_indices(rng, n, tol):
    """Numeric area index equals the formula, n - 3 less the dual index."""
    if n in (5, 7) and rng.random() < 0.25:
        turns = 2 if n == 5 else int(rng.integers(2, 4))
        cyclic = random_star_polygon(rng, n, turns)
    else:
        cyclic = random_cyclic_polygon(rng, n)
    report = duality_index_check(cyclic, tol)
    if report is None:
        return None
    numeric = report.mu_area_numeric
    return [("area index numeric off formula", abs(numeric - report.mu_area_formula), 0)]


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
            "checks": [dataclasses.asdict(t) for t in self.tallies],
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
