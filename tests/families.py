"""Frozen one-parameter families used by several test modules.

The slope family crosses the perimeter-sum zero (exceptional locus); the
cyclic family crosses the bifurcation locus.  Both stay valid along the whole
parameter interval, so bisection to the root is safe.  Seeded cyclic
polygons next to, or on, the bifurcation locus come from
:func:`near_bifurcation_phis`, folded ones from :func:`folded_phis`, and
seeded slope systems next to the exceptional locus from
:func:`near_exceptional_system`.
:func:`sequential_family_report` is the reference route of the family report
and :func:`sequential_bracket` that of one bisection; ``BENCH_F3`` and
``BENCH_CROSSING`` are the benchmark's crossing families.
"""

import math

import numpy as np

from polyslope import (
    CyclicPolygon,
    InputError,
    ParallelLines,
    PolyslopeError,
    SlopeSystem,
    build_chart,
)
from polyslope.cyclic import cyclic_invariants
from polyslope.randomgen import MIN_LINE_SEPARATION, random_cyclic_polygon, random_slope_system
from polyslope.tangential import exceptional_mask
from polyslope.tolerances import DEFAULT_TOL

# Slope family with a perimeter-sum zero crossing between the endpoints;
# pairwise line separations stay above 25 degrees throughout.
FAMILY_START = [0.0, 150.0, 72.0, 290.0]
FAMILY_END = [0.0, 135.0, 72.0, 290.0]

# The benchmark's family F3, and its fixed n = 6 crossing, as (start, end).
BENCH_F3 = (
    [203.401, 207.53, 322.02, 107.113, 3.88],
    [203.401, 207.53, 322.02, 107.113, -18.542],
)
BENCH_CROSSING = (
    [250.512, 43.289, 272.96, 318.156, 171.047, 157.43],
    [250.512, 43.289, 272.96, 318.156, 183.919, 157.43],
)

# Endpoints of a vertex-angle family crossing the bifurcation locus; every
# interpolated polygon is valid and keeps its arcs away from pi.
BIF_PHIS_A = np.radians(
    [
        266.84084099101227,
        311.870211972792,
        171.42097616789835,
        28.851306696730532,
        195.327680496804,
    ]
)
BIF_PHIS_B = np.radians(
    [
        166.62017500022853,
        43.65774418973755,
        103.9473382622385,
        182.18524772739968,
        209.55062587991927,
    ]
)


def family_system(t: float) -> SlopeSystem:
    angles = [(1 - t) * a + t * b for a, b in zip(FAMILY_START, FAMILY_END)]
    return SlopeSystem.from_degrees(angles)


def family_perimeter_sum(t: float) -> float:
    return build_chart(family_system(t)).perimeter_sum


def bisect_family_root(lo=0.0, hi=1.0, width=1e-13) -> float:
    flo = family_perimeter_sum(lo)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        fmid = family_perimeter_sum(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def interpolated(start, end, t):
    return [(1.0 - t) * a + t * b for a, b in zip(start, end)]


def negative_count(p, perimeter_sum) -> int:
    """Negative eigenvalues of the Hessian -(D + t t^T / p_1) / r at r < 0,
    from the signs of p: the index of the critical point of inradius -r."""
    return sum(x < 0 for x in p[1:]) + (perimeter_sum > 0) - (p[0] > 0)


def _sequential_step(start, end, t, tol):
    angles = interpolated(start, end, t)
    step = {"t": float(t), "angles_deg": [float(a) for a in angles]}
    try:
        chart = build_chart(SlopeSystem.from_degrees(angles), tol)
    except ParallelLines as exc:
        step["status"] = "invalid"
        step["reason"] = str(exc)
        return step
    step["status"] = "ok"
    step["perimeter_sum"] = float(chart.perimeter_sum)
    p, total = chart.unit_perimeters, chart.perimeter_sum
    if exceptional_mask(p, total, tol):
        step["exceptional"] = True
        step["critical_points"] = 0
    else:
        step["exceptional"] = False
        step["critical_points"] = 2
        step["area_sign"] = int(math.copysign(1.0, chart.perimeter_sum))
        negatives = int(negative_count(p.tolist(), total))
        step["indices"] = [chart.n - 3 - negatives, negatives]
    return step


def sequential_bracket(start, end, lo, hi, flo, tol=DEFAULT_TOL):
    """Bisection of a sign change of sum p between rows lo and hi with one
    build_chart per midpoint: the bracket, or None where a midpoint has
    parallel lines (a pole), and the number of midpoints charted."""
    halvings = 0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        halvings += 1
        try:
            system = SlopeSystem.from_degrees(interpolated(start, end, mid))
            fmid = float(build_chart(system, tol).perimeter_sum)
        except ParallelLines:
            return None, halvings
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    bracket = {
        "t_low": float(lo),
        "t_high": float(hi),
        "perimeter_sum_low": float(flo),
        "angles_deg_root": [float(a) for a in interpolated(start, end, 0.5 * (lo + hi))],
    }
    return bracket, halvings


def sequential_family_report(start, end, steps, tol=DEFAULT_TOL):
    """The family report with one SlopeSystem and one build_chart per row
    and per bisection midpoint: the route that ``family_report``'s angle
    stacks and bisection rounds replace, kept as their reference."""
    rows = [_sequential_step(start, end, i / (steps - 1), tol) for i in range(steps)]
    brackets = []
    for a, b in zip(rows[:-1], rows[1:]):
        if a.get("status") != "ok" or b.get("status") != "ok":
            continue
        pa, pb = a["perimeter_sum"], b["perimeter_sum"]
        if pa == 0.0 or pa * pb >= 0.0:
            continue
        bracket, _ = sequential_bracket(start, end, a["t"], b["t"], pa, tol)
        if bracket is not None:
            brackets.append(bracket)
    return {
        "kind": "family",
        "input": {
            "start_angles_deg": [float(a) for a in start],
            "end_angles_deg": [float(a) for a in end],
            "steps": int(steps),
        },
        "tolerances": tol.to_dict(),
        "rows": rows,
        "sign_changes": brackets,
    }


def _lines_apart(angles):
    lines = np.sort(np.asarray(angles) % np.pi)
    return np.min(np.diff(lines, append=lines[0] + np.pi)) >= MIN_LINE_SEPARATION


def near_exceptional_system(rng, n, low, high):
    """Chart of a random slope system with one slope moved by bisection until
    low <= |sum p| / sum|p| <= high, its lines still 3 degrees apart.

    The slope is first stepped around the circle by whole degrees; a step
    where sum p changes sign while every p_i keeps its sign brackets a root,
    where a sign change of some p_i would mark a pole.
    """

    def chart_at(angles, k, angle):
        moved = angles.copy()
        moved[k] = angle
        try:
            return build_chart(SlopeSystem.from_angles(moved))
        except PolyslopeError:
            return None

    while True:
        angles = random_slope_system(rng, n).angles.copy()
        k = int(rng.integers(n))
        steps = (angles[k] + np.radians(np.arange(361.0))).tolist()
        charts = [chart_at(angles, k, angle) for angle in steps]
        for (lo, left), (hi, right) in zip(zip(steps, charts), zip(steps[1:], charts[1:])):
            if left is None or right is None or left.perimeter_sum * right.perimeter_sum > 0:
                continue
            if not np.array_equal(left.positive_mask, right.positive_mask):
                continue
            f_lo = left.perimeter_sum
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                chart = chart_at(angles, k, mid)
                if chart is None:
                    break
                ratio = abs(chart.perimeter_sum) / float(np.sum(np.abs(chart.unit_perimeters)))
                if low <= ratio <= high:
                    if _lines_apart(chart.system.angles):
                        return chart
                    break
                if f_lo * chart.perimeter_sum <= 0:
                    hi = mid
                else:
                    lo, f_lo = mid, chart.perimeter_sum


def bif_family(t: float) -> CyclicPolygon:
    return CyclicPolygon(np.zeros(2), 1.0, (1 - t) * BIF_PHIS_A + t * BIF_PHIS_B)


def bisect_bifurcation_root(width=1e-15) -> float:
    lo, hi = 0.0, 1.0
    flo = cyclic_invariants(bif_family(lo)).bifurcation_sum
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        fmid = cyclic_invariants(bif_family(mid)).bifurcation_sum
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _tangent_sum(phis_deg):
    """B, sum|tan alpha| and the edge orientations of the unit-circle polygon."""
    inv = cyclic_invariants(CyclicPolygon.from_degrees(1.0, phis_deg))
    return inv.bifurcation_sum, inv.tangent_scale, inv.orientations


def near_bifurcation_phis(rng, n, low, high):
    """Vertex angles in degrees of a random cyclic n-gon, one vertex moved by
    bisection until low <= |B| / sum|tan alpha| <= high.

    With ``high = 0`` the bisection runs until the bracket is two adjacent
    floats and returns one end: a root of B to working precision.  The vertex
    is first stepped around the circle by whole degrees; a step where B
    changes sign while both edges at the vertex keep their orientation
    brackets a root, where a change of orientation would mark a pole.
    """
    while True:
        phis = np.degrees(random_cyclic_polygon(rng, n).phis).tolist()
        k = int(rng.integers(n))

        def moved(angle):
            return phis[:k] + [angle] + phis[k + 1:]

        samples = []
        for angle in (phis[k] + np.arange(361.0)).tolist():
            try:
                samples.append((angle, *_tangent_sum(moved(angle))))
            except PolyslopeError:
                samples.append(None)
        for left, right in zip(samples, samples[1:]):
            if left is None or right is None or left[1] * right[1] > 0:
                continue
            if not np.array_equal(left[3], right[3]):
                continue
            lo, hi, f_lo = left[0], right[0], left[1]
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                f_mid, scale, _ = _tangent_sum(moved(mid))
                if low <= abs(f_mid) / scale <= high:
                    return moved(mid)
                if f_lo * f_mid <= 0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            if high == 0.0:
                return moved(lo)


# Vertex angles in degrees of two folded cyclic polygons.  The pentagon has
# one fold, v_1 = v_3, B = 6.46 and area index 1.  In the quadrilateral,
# v_1 = v_3 makes two folds, at v_2 and at v_0, and B = 0 exactly: it is one
# of the roots that :func:`near_bifurcation_phis` draws for the digest's
# near-bifurcation sets (seed 24).
FOLD_PENTAGON = [10.0, 100.0, 170.0, 100.0, 250.0]
FOLD_QUADRILATERAL = [
    271.72180168247394, 123.73311108438979, 142.8761740602928, 123.73311108438979,
]


def folded_phis(rng, near=False):
    """Vertex angles in degrees of a random cyclic n-gon, n in 4..9, with
    one or more folds v_i = v_{i+2}, a chord walked there and back.  With
    ``near`` each fold's second vertex is moved off by a gap log-uniform in
    1e-13..1e-3 degrees, either way.  Draws that the constructor rejects
    (consecutive vertices coincident or antipodal) are drawn again."""
    while True:
        n = int(rng.integers(4, 10))
        phis = rng.uniform(0.0, 360.0, n)
        for i in rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False):
            gap = 10.0 ** rng.uniform(-13.0, -3.0) * rng.choice((-1.0, 1.0)) if near else 0.0
            phis[(i + 2) % n] = phis[i] + gap
        try:
            CyclicPolygon.from_degrees(1.0, phis)
        except InputError:
            continue
        return phis.tolist()
