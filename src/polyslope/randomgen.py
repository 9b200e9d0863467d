"""Seeded random generators for slope systems and cyclic polygons.

All generators take an explicit numpy Generator so sweeps are reproducible
and trials can be drawn independently.  Every draw keeps its lines (angles
mod pi) ``MIN_LINE_SEPARATION`` = delta = 3 degrees apart, so no two lines
are parallel within tolerance.  The lines are exact spacings: uniform lines
with every gap at least delta are delta plus the uniform spacings of the
slack pi - n delta (Devroye, Non-Uniform Random Variate Generation, 1986,
ch. 5), so one draw gives that law.  For n delta >= pi a generator raises
ValueError before drawing.  Two rejection steps remain; draws per accepted
system (200 draws, seed 5, n in {4, 9, 14, 20, 30, 59}):

* convex: redrawn while a direction gap is pi - delta or more; 2.02 draws at
  n = 4, 1.03 at n = 9 and 1 from n = 14;
* cyclic: redrawn while an edge lies within ``ANTIPODAL_MARGIN`` = 4 degrees
  of a diameter; 1.02 to 1.26 draws up to n = 30, 2.46 at n = 59.

The sweep draws n in 4..9 (gradient, determinant, index and convex checks),
4..12 (Hessian), 3..12 (chart identities and turning signature) and 4..7
(cyclic checks).  Nothing else filters the draws, so badly scaled systems
reach every check.
"""

import math

import numpy as np

from .cyclic import CyclicPolygon
from .geometry import TWO_PI, SlopeSystem, _cycled

MIN_LINE_SEPARATION = math.radians(3.0)
ANTIPODAL_MARGIN = math.radians(4.0)
RADII_SPREAD = 2.0
STAR_JITTER = 0.15
# For odd n a star's base lines lie pi / n apart and its base arcs at least
# pi / n from pi; pi / n - 2 STAR_JITTER is 8.5 degrees at n = 7.
STAR_SIZES = (5, 7)


def _require_separable(n: int) -> None:
    # n lines mod pi leave n gaps summing to pi, so no draw keeps a minimum
    # gap of pi / n or more.
    if n * MIN_LINE_SEPARATION >= math.pi:
        raise ValueError(
            f"{n} lines cannot keep a pairwise separation of {MIN_LINE_SEPARATION!r} rad"
        )


def _spaced_lines(rng: np.random.Generator, n: int) -> np.ndarray:
    """n line angles in [0, pi), uniform given every gap mod pi is at least
    ``MIN_LINE_SEPARATION``; sorted up to one wrap-around."""
    _require_separable(n)
    cuts = np.sort(rng.uniform(0.0, math.pi - n * MIN_LINE_SEPARATION, n - 1))
    lines = np.concatenate(([0.0], cuts + MIN_LINE_SEPARATION * np.arange(1, n)))
    return (lines + math.pi * rng.random()) % math.pi


def random_slope_system(rng: np.random.Generator, n: int) -> SlopeSystem:
    """Slope system with random directions and random cyclic order."""
    directions = _spaced_lines(rng, n) + math.pi * rng.integers(0, 2, n)
    return SlopeSystem.from_angles(rng.permutation(directions))


def random_convex_slope_system(rng: np.random.Generator, n: int) -> SlopeSystem:
    """Counterclockwise convex system: directions sorted, every gap below
    pi - ``MIN_LINE_SEPARATION``."""
    while True:
        directions = np.sort(_spaced_lines(rng, n) + math.pi * rng.integers(0, 2, n))
        wrap = directions[0] + TWO_PI - directions[-1]
        if max(wrap, np.max(np.diff(directions))) < math.pi - MIN_LINE_SEPARATION:
            return SlopeSystem.from_angles(directions)


def random_radii(rng: np.random.Generator, size: int) -> np.ndarray:
    """Generic signed radii bounded away from the all-degenerate origin."""
    while True:
        radii = rng.uniform(-RADII_SPREAD, RADII_SPREAD, size)
        if np.max(np.abs(radii)) > 0.05 * RADII_SPREAD:
            return radii


def random_cyclic_polygon(rng: np.random.Generator, n: int) -> CyclicPolygon:
    """Generic cyclic polygon: the lines through the center and its vertices
    apart, no edge within ``ANTIPODAL_MARGIN`` of a diameter."""
    while True:
        directions = _spaced_lines(rng, n) + math.pi * rng.integers(0, 2, n)
        phis = rng.permutation(directions)
        arcs = (_cycled(phis) - phis) % TWO_PI
        if np.min(np.abs(arcs - math.pi)) >= ANTIPODAL_MARGIN:
            return CyclicPolygon(np.zeros(2), float(rng.uniform(0.5, 2.0)), phis)


def random_star_polygon(rng: np.random.Generator, n: int, turns: int) -> CyclicPolygon:
    """Jittered star polygon {n/turns}; winds ``turns`` times around the center.

    ``turns`` must be coprime to n with 2 <= turns <= n - 2 for a genuine
    star (winding at least 2 in absolute value).  Only n in ``STAR_SIZES``
    is drawn, where the jitter keeps the margins of
    :func:`random_cyclic_polygon` without a rejection step.
    """
    _require_separable(n)
    if n not in STAR_SIZES:
        raise ValueError(f"star polygons are drawn with n in {STAR_SIZES}, not {n}")
    if math.gcd(turns, n) != 1:
        raise ValueError(f"turns {turns} must be coprime to n {n}")
    phis = TWO_PI * turns * np.arange(n) / n + rng.uniform(-STAR_JITTER, STAR_JITTER, n)
    return CyclicPolygon(np.zeros(2), float(rng.uniform(0.5, 2.0)), phis)


def trial_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one (seed, check, trial) stream."""
    return np.random.default_rng([seed, *stream])
