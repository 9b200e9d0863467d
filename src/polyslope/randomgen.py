"""Seeded random generators for slope systems and cyclic polygons.

All generators take an explicit numpy Generator so sweeps are reproducible
and trials can be drawn independently.  Line angles keep a minimum pairwise
separation of 3 degrees, so no two lines are parallel within tolerance.
Nothing else filters the draws: the ratio between the largest and smallest
unit perimeter is unbounded, and badly scaled systems reach every check.
A generator asked for n lines that cannot keep the separation
(n * separation >= pi) raises ValueError before drawing.
"""

import math

import numpy as np

from .cyclic import CyclicPolygon
from .geometry import SlopeSystem, TWO_PI

MIN_LINE_SEPARATION = math.radians(3.0)


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


def random_slope_system(
    rng: np.random.Generator,
    n: int,
    min_separation: float = MIN_LINE_SEPARATION,
) -> SlopeSystem:
    """Slope system with random directions and random cyclic order."""
    _require_separable(n, min_separation)
    while True:
        lines = rng.uniform(0.0, math.pi, n)
        if _line_separation_ok(lines, min_separation):
            break
    directions = lines + math.pi * rng.integers(0, 2, n)
    return SlopeSystem.from_angles(rng.permutation(directions))


def random_convex_slope_system(
    rng: np.random.Generator,
    n: int,
    min_separation: float = MIN_LINE_SEPARATION,
) -> SlopeSystem:
    """Counterclockwise convex system: directions sorted with sub-pi gaps."""
    _require_separable(n, min_separation)
    while True:
        directions = np.sort(rng.uniform(0.0, TWO_PI, n))
        gaps = np.diff(np.concatenate([directions, [directions[0] + TWO_PI]]))
        if np.min(gaps) < min_separation or np.max(gaps) >= math.pi - min_separation:
            continue
        if _line_separation_ok(directions, min_separation):
            return SlopeSystem.from_angles(directions)


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


def random_cyclic_polygon(
    rng: np.random.Generator,
    n: int,
    min_arc: float = math.radians(2.0),
    antipodal_margin: float = math.radians(4.0),
    min_separation: float = MIN_LINE_SEPARATION,
) -> CyclicPolygon:
    """Generic cyclic polygon: vertices apart, no edge near a diameter."""
    _require_separable(n, min_separation)
    while True:
        phis = rng.uniform(0.0, TWO_PI, n)
        if _cyclic_ok(phis, min_arc, antipodal_margin, min_separation):
            return CyclicPolygon(np.zeros(2), float(rng.uniform(0.5, 2.0)), phis)


def random_star_polygon(
    rng: np.random.Generator,
    n: int,
    turns: int,
    jitter: float = 0.15,
    min_separation: float = MIN_LINE_SEPARATION,
) -> CyclicPolygon:
    """Jittered star polygon {n/turns}; winds ``turns`` times around the center.

    ``turns`` must be coprime to n with 2 <= turns <= n - 2 for a genuine
    star (winding at least 2 in absolute value).
    """
    _require_separable(n, min_separation)
    if math.gcd(turns, n) != 1:
        raise ValueError(f"turns {turns} must be coprime to n {n}")
    base = TWO_PI * turns * np.arange(n) / n
    while True:
        phis = base + rng.uniform(-jitter, jitter, n)
        if _cyclic_ok(phis, math.radians(2.0), math.radians(4.0), min_separation):
            return CyclicPolygon(np.zeros(2), float(rng.uniform(0.5, 2.0)), phis)


def trial_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one (seed, check, trial) stream."""
    return np.random.default_rng([seed, *stream])
