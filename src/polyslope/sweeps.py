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
    cyclic_winding_check,
    dual_polygon,
    duality_index_check,
)
from .errors import PolyslopeError
from .geometry import (
    SlopeSystem,
    oriented_area,
    signed_perimeter,
    turn_counts,
    turning_sum,
    winding_number,
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
    decomposition_polygons,
    normalized_coordinates,
    polygon_from_radii,
    radii_of_polygon,
)
from .tangential import (
    ExceptionalSpace,
    critical_gradient_norm,
    hessian_det_identity,
    hessian_fd_comparison,
    morse_index_eigen,
    tangential_critical_points,
)
from .tolerances import DEFAULT_TOL, Tolerances

EXCEPTIONAL_EXCLUSION = 1e-6  # |sum p_i| below this fraction of sum |p_i| is skipped

# Finite differences of the constrained perimeter lose relative accuracy like
# 1 / (|sum p_i| / sum |p_i|) near the exceptional locus (the true Hessian
# shrinks with the perimeter sum while the evaluation noise grows with the
# inradius), so the difference-based Hessian check only runs where the oracle
# can certify 1e-5 with margin.  Analytic checks keep the tighter exclusion.
HESSIAN_FD_EXCLUSION = 1e-3


def _draw_n(rng, n_range, lo, hi):
    a = max(n_range[0], lo)
    b = min(n_range[1], hi)
    if a > b:
        return None
    return int(rng.integers(a, b + 1))


def _nonexceptional_points(chart, tol):
    if abs(chart.perimeter_sum) < EXCEPTIONAL_EXCLUSION * np.sum(
        np.abs(chart.unit_perimeters)
    ):
        return None
    points = tangential_critical_points(chart, tol)
    if isinstance(points, ExceptionalSpace):
        return None
    return points


def check_critical_gradient(rng, n_range, tol):
    """Finite-difference perimeter gradient vanishes at both critical points."""
    n = _draw_n(rng, n_range, 4, 9)
    if n is None:
        return None
    chart = build_chart(random_slope_system(rng, n), tol)
    points = _nonexceptional_points(chart, tol)
    if points is None:
        return None
    failures = []
    for point in points:
        norm, bound = critical_gradient_norm(point, tol=tol)
        if norm >= bound:
            failures.append(f"gradient norm {norm:.3e} at r={point.inradius:.4f} (n={n})")
    return failures


def check_hessian_difference(rng, n_range, tol):
    """Closed-form Hessian matches extrapolated central differences entrywise."""
    n = _draw_n(rng, n_range, 4, 8)
    if n is None:
        return None
    chart = build_chart(random_slope_system(rng, n), tol)
    if abs(chart.perimeter_sum) < HESSIAN_FD_EXCLUSION * np.sum(
        np.abs(chart.unit_perimeters)
    ):
        return None
    points = _nonexceptional_points(chart, tol)
    if points is None:
        return None
    failures = []
    for point in points:
        closed, fd = hessian_fd_comparison(point, tol=tol)
        scale = float(np.max(np.abs(closed)))
        rel = np.abs(fd - closed) / np.maximum(np.abs(closed), 1e-2 * scale)
        worst = float(np.max(rel))
        if worst >= 1e-5:
            failures.append(f"hessian mismatch {worst:.3e} (n={n}, r={point.inradius:.4f})")
    return failures


def check_hessian_determinant(rng, n_range, tol):
    """r**(n-3) det H equals the closed product formula."""
    n = _draw_n(rng, n_range, 4, 9)
    if n is None:
        return None
    chart = build_chart(random_slope_system(rng, n), tol)
    points = _nonexceptional_points(chart, tol)
    if points is None:
        return None
    failures = []
    for point in points:
        lhs, rhs = hessian_det_identity(point)
        if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs)):
            failures.append(f"determinant identity off: {lhs!r} vs {rhs!r} (n={n})")
    return failures


def check_index_agreement(rng, n_range, tol):
    """Eigenvalue index equals the formula index; the two points complement."""
    n = _draw_n(rng, n_range, 4, 9)
    if n is None:
        return None
    chart = build_chart(random_slope_system(rng, n), tol)
    points = _nonexceptional_points(chart, tol)
    if points is None:
        return None
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
    n = _draw_n(rng, n_range, 4, 9)
    if n is None:
        return None
    chart = build_chart(random_convex_slope_system(rng, n), tol)
    points = _nonexceptional_points(chart, tol)
    if points is None:
        return None
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
    vertices, area, perimeter and winding against the reconstruction."""
    n = _draw_n(rng, n_range, 3, 12)
    if n is None:
        return None
    chart = build_chart(random_slope_system(rng, n), tol)
    radii = random_radii(rng, n - 2)
    failures = []
    polygon = polygon_from_radii(chart, radii, tol)
    p = chart.unit_perimeters
    area = oriented_area(polygon)
    perim = signed_perimeter(polygon, chart.system, tol)
    area_sum = 0.5 * float(np.sum(p * radii**2))
    perim_sum = float(np.sum(p * radii))
    area_scale = max(1.0, 0.5 * float(np.sum(np.abs(p) * radii**2)))
    perim_scale = max(1.0, float(np.sum(np.abs(p * radii))))
    if abs(area - area_sum) > 1e-10 * area_scale:
        failures.append(f"quadratic area law off by {area - area_sum:.3e} (n={n})")
    if abs(perim - perim_sum) > 1e-10 * perim_scale:
        failures.append(f"linear perimeter law off by {perim - perim_sum:.3e} (n={n})")
    triangles = decomposition_polygons(chart, polygon, tol)
    tri_area = sum(oriented_area(t) for t in triangles)
    tri_perim = 0.0
    for i, t in enumerate(triangles):
        triple = (chart.system[0], chart.system[i + 1], chart.system[i + 2])
        tri_perim += signed_perimeter(t, triple, tol)
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
    for point in _nonexceptional_points(chart, tol) or ():
        rebuilt = polygon_from_radii(chart, np.full(n - 2, point.inradius), tol)
        gap = float(np.max(np.abs(rebuilt.vertices - point.polygon.vertices)))
        if gap > 1e-10 * rebuilt.diameter:
            failures.append(f"tangential vertices off the reconstruction by {gap:.3e} (n={n})")
        if abs(oriented_area(rebuilt) - point.area) > 1e-10:
            failures.append(f"tangential area off the reconstruction (n={n})")
        if abs(signed_perimeter(rebuilt, chart.system, tol) / point.perimeter - 1.0) > 1e-10:
            failures.append(f"tangential perimeter off the reconstruction (n={n})")
        if winding_number(rebuilt, point.incenter, tol) != point.winding:
            failures.append(f"tangential winding off the reconstruction (n={n})")
    return failures


def check_turning_signature(rng, n_range, tol):
    """Signature law, turning recursion, and turn-count total."""
    n = _draw_n(rng, n_range, 3, 12)
    if n is None:
        return None
    system = random_slope_system(rng, n)
    failures = []
    # build_chart raises SignatureMismatch when the sign count is off.
    build_chart(system, tol)
    total, k = turning_sum(system, tol)
    if not 1 <= k <= n - 1:
        failures.append(f"turning multiple {k} out of range (n={n})")
    if n > 3:
        head = SlopeSystem(system.slopes[:-1])
        tail = SlopeSystem((system.slopes[0], system.slopes[-2], system.slopes[-1]))
        lhs = total
        rhs = turning_sum(head, tol)[0] + turning_sum(tail, tol)[0] - math.pi
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
            failures.append(f"turning recursion off by {lhs - rhs:.3e} (n={n})")
    right, left = turn_counts(system)
    if right + left != n:
        failures.append(f"RT+LT = {right + left} != n (n={n})")
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
    bif = bifurcation_test(cyclic, tol)
    dual_vanishes = abs(measured) < tol.bifurcation * scale
    if bif != dual_vanishes:
        failures.append(f"bifurcation test {bif} disagrees with dual perimeter (n={n})")
    lengths = cyclic.polygon.edge_lengths
    if float(np.max(np.abs(lengths - 2.0 * cyclic.radius * np.sin(inv.half_angles)))) > (
        1e-12 * cyclic.radius
    ):
        failures.append(f"chord-length law violated (n={n})")
    if not cyclic_winding_check(cyclic, tol):
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
    if bifurcation_test(cyclic, tol):
        return None
    report = duality_index_check(cyclic, tol)
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
    tol: Tolerances | None = None,
) -> SweepResult:
    """Run every check ``trials`` times with independent seeded streams.

    Results are deterministic functions of (seed, trials, n_range, tol): each
    (check, trial) pair owns its own random stream, so no trial's outcome
    depends on the order in which the trials run.  A library error raised
    inside a check counts as one failed trial, named with the check.
    """
    tol = DEFAULT_TOL if tol is None else tol
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
