"""Input-file validation and analysis reports for the command line.

Input schemas (angles in degrees for readability):

* slopes file:  {"angles_deg": [a1, a2, ...]}
* cyclic file:  {"radius": R > 0, "phis_deg": [p1, ...], "center": [x, y]?}
* family file:  {"start_angles_deg": [...], "end_angles_deg": [...]}

Reports are plain dicts of JSON-safe values (floats, ints, bools, strings,
lists), so ``json.dumps``/``json.loads`` round-trips them losslessly.
"""

import json
import math

import numpy as np

from .cyclic import (
    CyclicPolygon,
    cyclic_invariants,
    dual_slopes,
    duality_index_check,
)
from .errors import Bifurcating, InputSchemaError, ParallelLines, SlopeMismatch
from .geometry import (
    TWO_PI,
    SlopeSystem,
    require_distinct,
    signed_perimeters,
    tangential_offsets,
)
from .slope_space import build_chart, chart_stack, topology_report
from .tangential import (
    critical_gradient_norms,
    exceptional_mask,
    morse_index_eigen,
    sign_count_index,
    tangential_critical_points,
)
from .tolerances import DEFAULT_TOL, Tolerances


def load_input_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except ValueError as exc:  # malformed JSON, not UTF-8, or an integer too long
        raise InputSchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputSchemaError(f"{path}: top level must be a JSON object")
    return data


def _finite_number(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _angle_list(data: dict, field: str) -> list[float]:
    if field not in data:
        raise InputSchemaError(f"missing field {field!r}")
    values = data[field]
    if not isinstance(values, list) or len(values) < 3:
        raise InputSchemaError(f"field {field!r} must be a list of at least 3 numbers")
    for i, v in enumerate(values):
        if not _finite_number(v):
            raise InputSchemaError(f"field {field!r}[{i}] must be a finite number")
    return [float(v) for v in values]


def validate_slopes_input(data: dict) -> list[float]:
    return _angle_list(data, "angles_deg")


def validate_cyclic_input(data: dict) -> tuple[float, list[float], tuple[float, float]]:
    if "radius" not in data:
        raise InputSchemaError("missing field 'radius'")
    radius = data["radius"]
    if not _finite_number(radius) or radius <= 0:
        raise InputSchemaError("field 'radius' must be a positive finite number")
    phis = _angle_list(data, "phis_deg")
    center = data.get("center", [0.0, 0.0])
    if not isinstance(center, list) or len(center) != 2 or not all(map(_finite_number, center)):
        raise InputSchemaError("field 'center' must be a pair [x, y] of finite numbers")
    return float(radius), phis, (float(center[0]), float(center[1]))


def validate_family_input(data: dict) -> tuple[list[float], list[float]]:
    """The two angle lists; :func:`family_report` checks that they match."""
    return _angle_list(data, "start_angles_deg"), _angle_list(data, "end_angles_deg")


def detect_kind(data: dict) -> str:
    if "angles_deg" in data:
        return "slopes"
    if "phis_deg" in data:
        return "cyclic"
    if "start_angles_deg" in data:
        return "family"
    raise InputSchemaError(
        "cannot classify input: expected 'angles_deg', 'phis_deg' or 'start_angles_deg'"
    )


def _component_dict(shape) -> dict:
    return {
        "sphere_dim": shape.sphere_dim,
        "disc_dim": shape.disc_dim,
        "empty": shape.empty,
        "description": shape.describe(),
    }


def _critical_point_dicts(points) -> list[dict]:
    """The report entries of the two critical points of one chart.  Their
    gradients are one complex stack and their polygons one vertex stack,
    each row from that point's own incenter and inradius, checked at once as
    PolygonChain checks each: the first polygon to fail raises."""
    chart = points[0].chart
    reports = [morse_index_eigen(point) for point in points]
    gradients = critical_gradient_norms(points)
    centers = np.array([point.incenter for point in points])
    radii = [point.inradius for point in points]
    vertices = centers[:, None] - tangential_offsets(chart.system.angles, radii)
    require_distinct(vertices)
    return [
        {
            "inradius": float(point.inradius),
            "perimeter": float(point.perimeter),
            "area": float(point.area),
            "incenter": point.incenter.tolist(),
            "winding": int(chart.winding),
            "right_turns": int(chart.right_turns),
            "left_turns": int(chart.left_turns),
            "gradient_norm": float(gradient_norm),
            "gradient_bound": float(gradient_bound),
            "eigenvalues": report.eigenvalues.tolist(),
            "index_eigen": int(report.index_eigen),
            "index_formula": int(report.index_formula),
            "agreement": bool(report.agreement),
            "vertices": polygon.tolist(),
        }
        for point, report, (gradient_norm, gradient_bound), polygon in zip(
            points, reports, gradients, vertices
        )
    ]


def slopes_report(angles_deg: list[float], tol: Tolerances = DEFAULT_TOL) -> dict:
    system = SlopeSystem.from_degrees(angles_deg)
    chart = build_chart(system, tol)
    total, half_turns = chart.angle_sum, chart.half_turns
    topology = topology_report(chart)
    report = {
        "kind": "slopes",
        "input": {
            "angles_deg": [float(a) for a in angles_deg],
            "angles_rad": system.angles.tolist(),
        },
        "tolerances": tol.to_dict(),
        "turning": {
            "angle_sum_rad": float(total),
            "angle_sum_deg": float(math.degrees(total)),
            "half_turns": int(half_turns),
            "right_turns": int(chart.right_turns),
            "left_turns": int(chart.left_turns),
        },
        "chart": {
            "unit_perimeters": chart.unit_perimeters.tolist(),
            "area_constants": chart.area_constants.tolist(),
            "perimeter_sum": float(chart.perimeter_sum),
            "positive_count": int(np.count_nonzero(chart.positive_mask)),
            "expected_positive_count": int(half_turns - 1),
        },
        "topology": {
            "half_turns": int(topology.half_turns),
            "negative_component": _component_dict(topology.negative_component),
            "positive_component": _component_dict(topology.positive_component),
        },
    }
    points = tangential_critical_points(chart, tol)
    if not points:
        report["critical"] = {"exceptional": True, "points": []}
    else:
        report["critical"] = {
            "exceptional": False,
            "points": _critical_point_dicts(points),
        }
    return report


def cyclic_report(
    radius: float,
    phis_deg: list[float],
    center: tuple[float, float] = (0.0, 0.0),
    tol: Tolerances = DEFAULT_TOL,
) -> dict:
    cyclic = CyclicPolygon.from_degrees(radius, phis_deg, center)
    inv = cyclic_invariants(cyclic)
    unresolved = "the coordinates cannot resolve the polygon at this radius and center"
    # Coordinates near the center round by eps |center|, which turns an edge
    # of length R by up to that over R.
    blur = float(np.finfo(float).eps * np.max(np.abs(cyclic.center)))
    if blur > tol.parallel * cyclic.radius:
        raise InputSchemaError(
            f"{unresolved} (rounding of {blur!r} at the center exceeds "
            f"{tol.parallel!r} times the radius)"
        )
    with np.errstate(over="raise"):
        try:
            # One tangential construction gives the dual polygon about the
            # center, which is reported, and about the origin, whose perimeter
            # keeps short edges' digits.  Rounding about the center can merge
            # vertices or pull them apart, so both are checked as PolygonChain
            # checks them, in one stack: the first to fail raises.
            slopes = dual_slopes(cyclic)
            offsets = tangential_offsets(slopes.angles, cyclic.radius)
            duals = np.stack((cyclic.center - offsets, 0.0 - offsets))
            require_distinct(duals)
            dual_perimeter = signed_perimeters(duals[1], slopes.angles, tol)
            twice_radius_sum = float(2.0 * np.float64(radius) * inv.bifurcation_sum)
        except FloatingPointError as exc:
            raise InputSchemaError(f"the dual polygon overflows the float range ({exc})") from exc
        except SlopeMismatch as exc:
            # The dual is built from exact slopes and each edge is allowed the
            # roundoff of its own scale, so an edge leaves its slope only where
            # the coordinates are too coarse to resolve the polygon, as at a
            # subnormal radius.
            raise InputSchemaError(f"{unresolved} ({exc})") from exc
    try:
        check = duality_index_check(cyclic, inv, slopes, tol)
    except Bifurcating:
        check = None  # the area Hessian is degenerate: no index to report
    bifurcating = check is None
    report = {
        "kind": "cyclic",
        "input": {
            "radius": float(radius),
            "phis_deg": [float(p) for p in phis_deg],
            "phis_rad": cyclic.phis.tolist(),
            "center": [float(center[0]), float(center[1])],
        },
        "tolerances": tol.to_dict(),
        "invariants": {
            "edge_orientations": inv.orientations.tolist(),
            "half_angles_rad": inv.half_angles.tolist(),
            "half_angles_deg": [float(math.degrees(a)) for a in inv.half_angles],
            "positive_edges": int(inv.positive_edges),
            "winding": int(inv.winding),
            "bifurcation_sum": float(inv.bifurcation_sum),
        },
        "bifurcating": bool(bifurcating),
        "dual": {
            "slope_angles_deg": [math.degrees(a) for a in slopes.angles.tolist()],
            "vertices": duals[0].tolist(),
            "signed_perimeter": float(dual_perimeter),
            "twice_radius_times_sum": twice_radius_sum,
            "inradius": float(radius),
        },
    }
    if bifurcating:
        report["indices"] = {
            "withheld": True,
            "reason": "bifurcating polygon: the area Hessian is degenerate",
        }
        return report
    indices: dict = {
        "withheld": False,
        "mu_area_numeric": check.mu_area_numeric,
        "mu_area_formula": check.mu_area_formula,
        "mu_dual_perimeter": check.mu_dual_perimeter,
    }
    if check.dual_note is not None:
        indices["dual_note"] = check.dual_note
    indices["identity_holds"] = check.identity_holds
    report["indices"] = indices
    return report


# A bisection round charts, in one chart_stack call, the 2**depth - 1
# midpoints that the next depth halvings can visit and those of the halvings
# along the secant root.  The tree holds a bracket to ceil(halvings / depth)
# rounds whatever the secant root does; the path brings a root bracket of 37
# halvings from 8 rounds to 3 or 4.  On the benchmark's n = 6 crossing
# (2-core VM) a round took about 110 us with the tree alone (31 rows) and
# 145 us with the path (up to 63 rows); the bracket took 0.9-1.0 ms in 8
# rounds and 0.5-0.6 ms in 3.
BISECTION_DEPTH = 5
BRACKET_WIDTH = 1e-12


def _family_angles(start, end, ts) -> tuple[np.ndarray, np.ndarray]:
    """Degrees of the family at each parameter in ``ts``, one row each, and
    their radians reduced as :class:`SlopeSystem` stores them."""
    t = np.asarray(ts, dtype=float)[:, None]
    # An angle beyond the float range reduces to NaN: its row breaks the range
    # rule, whose error is then a ValueError, as from SlopeSystem and build_chart.
    with np.errstate(over="ignore", invalid="ignore"):
        degrees = (1.0 - t) * np.asarray(start, dtype=float) + t * np.asarray(end, dtype=float)
        reduced = np.radians(degrees) % TWO_PI
    reduced[reduced == TWO_PI] = 0.0
    return degrees, reduced


def _family_rows(start, end, steps, tol) -> list[dict]:
    """One row per step, all charted by one chart_stack call.  Parallel
    lines make a row invalid, with their message as reason; any other
    broken rule raises its error."""
    ts = [i / (steps - 1) for i in range(steps)]
    degrees, reduced = _family_angles(start, end, ts)
    stack = chart_stack(reduced, tol)
    perimeters, sums = stack.unit_perimeters, stack.perimeter_sums
    reasons = {}
    for i in np.flatnonzero(~stack.ok).tolist():
        try:
            stack.require(row=i)
        except ParallelLines as exc:
            reasons[i] = str(exc)
    exceptional_rows = exceptional_mask(perimeters, sums, tol).tolist()
    # The two critical points, of inradius +r and -r, have the area sign of sum p.
    indices = zip(*(sign_count_index(perimeters, sums, r).tolist() for r in (1.0, -1.0)))
    rows = []
    for i, (t, angles, total, index_pair) in enumerate(
        zip(ts, degrees.tolist(), sums.tolist(), indices)
    ):
        step = {"t": t, "angles_deg": angles}
        if i in reasons:
            step["status"] = "invalid"
            step["reason"] = reasons[i]
        else:
            step["status"] = "ok"
            step["perimeter_sum"] = total
            step["exceptional"] = exceptional_rows[i]
            if exceptional_rows[i]:
                step["critical_points"] = 0
            else:
                step["critical_points"] = 2
                step["area_sign"] = int(math.copysign(1.0, total))
                step["indices"] = list(index_pair)
        rows.append(step)
    return rows


def _midpoint_tree(lo: float, hi: float) -> list[float]:
    """Midpoints of the bisection tree below (lo, hi), BISECTION_DEPTH levels
    deep: each halves its interval at 0.5 * (lo + hi), the arithmetic of one
    halving."""
    intervals = [(lo, hi)]
    mids = []
    for _ in range(BISECTION_DEPTH):
        level = []
        for a, b in intervals:
            mid = 0.5 * (a + b)
            mids.append(mid)
            level += ((a, mid), (mid, b))
        intervals = level
    return mids


def _secant_path(lo: float, hi: float, flo: float, fhi: float) -> list[float]:
    """Midpoints of the halvings of (lo, hi), down to BRACKET_WIDTH, that keep
    the secant root of the bracket ends inside, with the arithmetic of one
    halving; none when the ends define no root in [lo, hi]."""
    slope = fhi - flo
    root = lo - flo * (hi - lo) / slope if slope else math.nan
    mids = []
    if lo <= root <= hi:
        while hi - lo > BRACKET_WIDTH:
            mid = 0.5 * (lo + hi)
            mids.append(mid)
            if root < mid:
                hi = mid
            else:
                lo = mid
    return mids


def _bracket(start, end, lo: float, hi: float, flo: float, fhi: float, tol) -> dict | None:
    """Bisect a sign change of sum p between lo and hi to BRACKET_WIDTH.

    Each halving keeps the half (lo, mid) when flo * f(mid) <= 0 and
    (mid, hi) otherwise.  A round charts, in one call, the midpoints of the
    next BISECTION_DEPTH halvings and those of the halvings that follow the
    secant root of f(lo) and f(hi), and walks on while its next midpoint was
    charted, found by value: the walk visits the midpoints of the one-at-a-
    time loop, at least BISECTION_DEPTH of them a round.  Reaching parallel
    lines means a pole, not a root: None.
    """
    while hi - lo > BRACKET_WIDTH:
        mids = _midpoint_tree(lo, hi) + _secant_path(lo, hi, flo, fhi)[BISECTION_DEPTH:]
        _, reduced = _family_angles(start, end, mids)
        stack = chart_stack(reduced, tol)
        ok = stack.ok
        charted = {mid: row for row, mid in enumerate(mids)}
        mid = 0.5 * (lo + hi)
        while hi - lo > BRACKET_WIDTH and mid in charted:
            # Only the sign of sum p matters here; critical points next to
            # its root are nearly degenerate and their indices are not reported.
            row = charted[mid]
            if not ok[row]:
                try:
                    stack.require(row=row)
                except ParallelLines:
                    return None
            fmid = float(stack.perimeter_sums[row])
            if flo * fmid <= 0.0:
                hi, fhi = mid, fmid
            else:
                lo, flo = mid, fmid
            mid = 0.5 * (lo + hi)
    degrees, _ = _family_angles(start, end, [0.5 * (lo + hi)])
    return {
        "t_low": float(lo),
        "t_high": float(hi),
        "perimeter_sum_low": float(flo),
        "angles_deg_root": degrees[0].tolist(),
    }


def family_report(
    start: list[float],
    end: list[float],
    steps: int,
    tol: Tolerances = DEFAULT_TOL,
) -> dict:
    """Interpolate two slope systems and track the perimeter sum.

    Produces one row per step and refines every sign change of the perimeter
    sum by bisection to a bracket of width 1e-12 in the family parameter.
    A bisection that reaches parallel lines has found a pole, not a root.
    """
    if len(start) != len(end):
        raise InputSchemaError("'start_angles_deg' and 'end_angles_deg' differ in length")
    if steps < 2:
        raise InputSchemaError("family needs at least 2 steps")
    rows = _family_rows(start, end, steps, tol)
    brackets = []
    for a, b in zip(rows[:-1], rows[1:]):
        if a.get("status") != "ok" or b.get("status") != "ok":
            continue
        pa, pb = a["perimeter_sum"], b["perimeter_sum"]
        if pa == 0.0 or pa * pb >= 0.0:
            continue
        bracket = _bracket(start, end, a["t"], b["t"], pa, pb, tol)
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
