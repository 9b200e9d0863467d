"""Seeded random generators for slope systems and cyclic polygons.

All generators take an explicit numpy Generator so sweeps are reproducible
and trials can be drawn independently.  Line angles keep a minimum pairwise
separation of 3 degrees and charts keep a bounded ratio between the largest
and smallest unit perimeter, which keeps Hessian conditioning bounded across
sweeps (near-parallel lines make some decomposition triangles collapse or
blow up).  A generator asked for n lines that cannot keep the separation
(n * separation >= pi) raises ValueError before drawing.
"""

import math

import numpy as np

from .cyclic import CyclicPolygon, dual_polygon
from .geometry import SlopeSystem, TWO_PI
from .slope_space import build_chart
from .tolerances import DEFAULT_TOL, Tolerances

MIN_LINE_SEPARATION = math.radians(3.0)
MAX_PERIMETER_RATIO = 300.0


def _require_separable(n: int, min_separation: float) -> None:
    # n lines mod pi leave n gaps summing to pi, so a minimum gap of pi / n
    # or more is met with probability zero and a rejection loop never ends.
    if n * min_separation >= math.pi:
        raise ValueError(
            f"{n} lines cannot keep a pairwise separation of {min_separation!r} rad"
        )


def _line_separation_ok(angles: np.ndarray, min_separation: float) -> bool:
    lines = np.sort(np.asarray(angles) % math.pi)
    gaps = np.diff(np.concatenate([lines, [lines[0] + math.pi]]))
    return bool(np.min(gaps) >= min_separation)


def _chart_conditioning_ok(system: SlopeSystem, max_ratio: float, tol: Tolerances) -> bool:
    p = np.abs(build_chart(system, tol).unit_perimeters)
    return bool(np.max(p) / np.min(p) <= max_ratio)


def random_slope_system(
    rng: np.random.Generator,
    n: int,
    min_separation: float = MIN_LINE_SEPARATION,
    max_perimeter_ratio: float = MAX_PERIMETER_RATIO,
    tol: Tolerances | None = None,
) -> SlopeSystem:
    """Slope system with random directions and random cyclic order."""
    tol = DEFAULT_TOL if tol is None else tol
    _require_separable(n, min_separation)
    while True:
        lines = rng.uniform(0.0, math.pi, n)
        if not _line_separation_ok(lines, min_separation):
            continue
        directions = lines + math.pi * rng.integers(0, 2, n)
        system = SlopeSystem.from_angles(rng.permutation(directions))
        if _chart_conditioning_ok(system, max_perimeter_ratio, tol):
            return system


def random_convex_slope_system(
    rng: np.random.Generator,
    n: int,
    min_separation: float = MIN_LINE_SEPARATION,
    max_perimeter_ratio: float = MAX_PERIMETER_RATIO,
    tol: Tolerances | None = None,
) -> SlopeSystem:
    """Counterclockwise convex system: directions sorted with sub-pi gaps."""
    tol = DEFAULT_TOL if tol is None else tol
    _require_separable(n, min_separation)
    while True:
        directions = np.sort(rng.uniform(0.0, TWO_PI, n))
        gaps = np.diff(np.concatenate([directions, [directions[0] + TWO_PI]]))
        if np.min(gaps) < min_separation or np.max(gaps) >= math.pi - min_separation:
            continue
        if not _line_separation_ok(directions, min_separation):
            continue
        system = SlopeSystem.from_angles(directions)
        if _chart_conditioning_ok(system, max_perimeter_ratio, tol):
            return system


def random_radii(rng: np.random.Generator, size: int, spread: float = 2.0) -> np.ndarray:
    """Generic signed radii bounded away from the all-degenerate origin."""
    while True:
        radii = rng.uniform(-spread, spread, size)
        if np.max(np.abs(radii)) > 0.05 * spread:
            return radii


def _cyclic_ok(
    phis: np.ndarray,
    min_arc: float,
    antipodal_margin: float,
    min_separation: float,
) -> bool:
    arcs = (np.roll(phis, -1) - phis) % TWO_PI
    if np.min(np.minimum(arcs, TWO_PI - arcs)) < min_arc:
        return False
    if np.min(np.abs(arcs - math.pi)) < antipodal_margin:
        return False
    return _line_separation_ok(phis, min_separation)


def _dual_conditioning_ok(cyclic: CyclicPolygon, max_ratio: float, tol: Tolerances) -> bool:
    return _chart_conditioning_ok(dual_polygon(cyclic, tol).slopes, max_ratio, tol)


def random_cyclic_polygon(
    rng: np.random.Generator,
    n: int,
    min_arc: float = math.radians(2.0),
    antipodal_margin: float = math.radians(4.0),
    min_separation: float = MIN_LINE_SEPARATION,
    max_perimeter_ratio: float = MAX_PERIMETER_RATIO,
    tol: Tolerances | None = None,
) -> CyclicPolygon:
    """Generic cyclic polygon with a well-conditioned dual slope system."""
    tol = DEFAULT_TOL if tol is None else tol
    _require_separable(n, min_separation)
    while True:
        phis = rng.uniform(0.0, TWO_PI, n)
        if not _cyclic_ok(phis, min_arc, antipodal_margin, min_separation):
            continue
        cyclic = CyclicPolygon(np.zeros(2), float(rng.uniform(0.5, 2.0)), phis)
        if _dual_conditioning_ok(cyclic, max_perimeter_ratio, tol):
            return cyclic


def random_star_polygon(
    rng: np.random.Generator,
    n: int,
    turns: int,
    jitter: float = 0.15,
    min_separation: float = MIN_LINE_SEPARATION,
    max_perimeter_ratio: float = MAX_PERIMETER_RATIO,
    tol: Tolerances | None = None,
) -> CyclicPolygon:
    """Jittered star polygon {n/turns}; winds ``turns`` times around the center.

    ``turns`` must be coprime to n with 2 <= turns <= n - 2 for a genuine
    star (winding at least 2 in absolute value).
    """
    tol = DEFAULT_TOL if tol is None else tol
    _require_separable(n, min_separation)
    if math.gcd(turns, n) != 1:
        raise ValueError(f"turns {turns} must be coprime to n {n}")
    base = TWO_PI * turns * np.arange(n) / n
    while True:
        phis = base + rng.uniform(-jitter, jitter, n)
        if not _cyclic_ok(phis, math.radians(2.0), math.radians(4.0), min_separation):
            continue
        cyclic = CyclicPolygon(np.zeros(2), float(rng.uniform(0.5, 2.0)), phis)
        if _dual_conditioning_ok(cyclic, max_perimeter_ratio, tol):
            return cyclic


def trial_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one (seed, check, trial) stream."""
    return np.random.default_rng([seed, *stream])
