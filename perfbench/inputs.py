"""Seeded inputs for the benchmark, drawn without calling polyslope.

Every draw is filtered by closed-form quantities from ``oracles`` only:

* slope systems: lines at least ``MIN_GAP_DEG`` apart, max|p| / min|p| at
  most ``MAX_RATIO``, |sum p| / sum|p| at least ``MIN_EXCEPTIONAL_MARGIN``,
  and ``gradient_chart_ratio`` at most ``MAX_GRADIENT_CHART_RATIO``;
* cyclic polygons: vertices apart, no edge near a diameter, and the dual
  slope system (the tangent lines) filtered as above, which also keeps the
  tangent sum B away from zero;
* families: one angle moves linearly; the moving line never comes within
  ``MIN_GAP_DEG`` of another line, and every point of a fine grid along the
  path passes the slope-system filter.

The ratio filter exists because the program fails on a seed-dependent share
of unfiltered systems (about 1 % at a 1 degree gap, all with ratio above
1e4); a share that changes with the seed cannot be counted as failed
operations, so those systems are represented by one fixed input instead
(``FAULTS``).  ``MAX_RATIO`` is 30 times looser than the sweep generator's.
"""

import math

import numpy as np

import oracles

MIN_GAP_DEG = 1.0
MAX_RATIO = 1e3
MIN_EXCEPTIONAL_MARGIN = 1e-3
# Above this the program's gradient check can report a nonzero gradient at
# a critical point (1.8e-5 at 362, CLI exit 3); no draw of 3000 exceeded 50.
MAX_GRADIENT_CHART_RATIO = 50.0
FAMILY_GRID = 101
FAMILY_STEPS = 11

# Inputs on which the program fails every time, one per known fault.
FAULTS = {
    # F1: area_morse_index_numeric takes np.max over a 0x0 matrix at n = 3.
    "F1": {"kind": "cyclic", "radius": 1.0, "phis_deg": [0.0, 120.0, 240.0]},
    # F2: DegenerateHessian far from the exceptional locus (ratio 1.8e4).
    "F2": {
        "kind": "slopes",
        "angles_deg": [206.51, 229.95, 219.36, 34.65, 238.03, 227.5, 296.6, 289.26, 117.78],
    },
    # F3: Morse indices at a bisection midpoint next to the root of sum p.
    "F3": {
        "kind": "family",
        "start": [203.401, 207.53, 322.02, 107.113, 3.88],
        "end": [203.401, 207.53, 322.02, 107.113, -18.542],
    },
}

# Crossings of sum p = 0 at n >= 5 that the program brackets without
# failing.  Whether a bisection midpoint lands in the Hessian dead band is
# a property of the path, so seeded crossings stay at n = 4 (a 1x1 Hessian
# has no dead band relative to itself) and larger crossings are fixed.
# Of 30 drawn n = 6 crossings, 28 failed (F3); this is one of the other two.
FIXED_CROSSINGS = [
    {
        "start": [250.512, 43.289, 272.96, 318.156, 171.047, 157.43],
        "end": [250.512, 43.289, 272.96, 318.156, 183.919, 157.43],
    },
]


def slopes_ok(angles_deg) -> bool:
    radians = np.radians(angles_deg)
    if oracles.min_line_gap(radians) < math.radians(MIN_GAP_DEG):
        return False
    ratio, margin = oracles.conditioning(radians)
    return ratio <= MAX_RATIO and margin >= MIN_EXCEPTIONAL_MARGIN


def gradient_chart_ratio(angles_deg) -> float:
    """max|p| / |p_1| in the relabelling whose first triangle has the largest |p|.

    The program's finite-difference gradient works in that chart and
    divides by p_1 there.
    """
    radians = np.radians(angles_deg)
    firsts = [abs(oracles.unit_perimeters(np.roll(radians, -k)[:3])[0])
              for k in range(len(radians))]
    p = np.abs(oracles.unit_perimeters(np.roll(radians, -int(np.argmax(firsts)))))
    return float(np.max(p) / p[0])


def draw_slopes(rng: np.random.Generator, n: int) -> list[float]:
    while True:
        angles = [float(a) for a in rng.uniform(0.0, 360.0, n)]
        if slopes_ok(angles) and gradient_chart_ratio(angles) <= MAX_GRADIENT_CHART_RATIO:
            return angles


def draw_cyclic(rng: np.random.Generator, n: int) -> dict:
    while True:
        phis = rng.uniform(0.0, 360.0, n)
        arcs = (np.roll(phis, -1) - phis) % 360.0
        if np.min(np.minimum(arcs, 360.0 - arcs)) < 2.0:
            continue
        if np.min(np.abs(arcs - 180.0)) < 4.0:
            continue
        if not slopes_ok((phis + 90.0) % 360.0):
            continue
        return {
            "radius": float(rng.uniform(0.5, 2.0)),
            "phis_deg": [float(p) for p in phis],
            "center": [float(c) for c in rng.uniform(-1.0, 1.0, 2)],
        }


def _sweep_clear(start, moving: int, end_angle: float) -> bool:
    """The moving line stays MIN_GAP_DEG away from every other line."""
    lo, hi = sorted((start[moving], end_angle))
    for j, a in enumerate(start):
        if j == moving:
            continue
        # Positions of line j (mod 180) that the moving angle could meet.
        first = a + 180.0 * math.ceil((lo - MIN_GAP_DEG - a) / 180.0)
        if first <= hi + MIN_GAP_DEG:
            return False
    return True


def _grid(start, end) -> list[list[float]]:
    return [
        oracles.interpolated_deg(start, end, float(t))
        for t in np.linspace(0.0, 1.0, FAMILY_GRID)
    ]


def draw_family(rng: np.random.Generator, n: int, crossing: bool) -> dict:
    """One-angle family; ``crossing`` asks for one sign change of sum p.

    Every row passes the slope-system filter.  Between rows a crossing path
    has to come close to sum p = 0, so there only the line gap and the
    ratio are filtered; a path that does not cross is filtered in full.
    """
    while True:
        start = draw_slopes(rng, n)
        moving = int(rng.integers(0, n))
        delta = float(rng.uniform(5.0, 60.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        end = list(start)
        end[moving] = start[moving] + delta
        if not _sweep_clear(start, moving, end[moving]):
            continue
        rows = [
            oracles.interpolated_deg(start, end, i / (FAMILY_STEPS - 1))
            for i in range(FAMILY_STEPS)
        ]
        if not all(slopes_ok(row) for row in rows):
            continue
        sums = [float(np.sum(oracles.unit_perimeters(np.radians(row)))) for row in rows]
        changes = sum(1 for a, b in zip(sums, sums[1:]) if a * b < 0.0)
        if changes != (1 if crossing else 0):
            continue
        if crossing:
            grid_ok = all(
                oracles.conditioning(np.radians(g))[0] <= MAX_RATIO for g in _grid(start, end)
            )
        else:
            grid_ok = all(slopes_ok(g) for g in _grid(start, end))
        if grid_ok:
            return {"start": start, "end": end}
