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

from .cyclic import CyclicPolygon, dual_polygon, duality_index_check
from .errors import InputSchemaError, ParallelLines
from .geometry import TWO_PI, SlopeSystem, tangential_polygons, turn_tangents
from .slope_space import build_chart, chart_stack, topology_report
from .tangential import (
    edge_terms,
    exceptional_mask,
    index_pair,
    index_reports,
    tangential_critical_points,
    tangential_residual,
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
    Hessians are one stack and their polygons one vertex stack; the first
    polygon's edge-space checks and index count, from one pass over its
    edges, serve both, whose edges differ in sign."""
    chart = points[0].chart
    centers, radii = [point.incenter for point in points], [point.inradius for point in points]
    vertices = tangential_polygons(chart.system.angles, centers, radii)
    edges = edge_terms(chart, vertices[0])
    reports = index_reports(points, vertices[0], edges)
    norm, bound, area_error, area_bound = tangential_residual(chart, vertices[0], radii[0], edges)
    return [
        {
            "inradius": float(point.inradius),
            "perimeter": float(point.perimeter),
            "area": float(point.area),
            "incenter": point.incenter.tolist(),
            "winding": int(chart.winding),
            "right_turns": int(chart.right_turns),
            "left_turns": int(chart.left_turns),
            "gradient_norm": norm,
            "gradient_bound": bound,
            "area_error": area_error,
            "area_bound": area_bound,
            "eigenvalues": report.eigenvalues.tolist(),
            "index_eigen": int(report.index_eigen),
            "index_formula": int(report.index_formula),
            "agreement": bool(report.agreement),
            "vertices": polygon.tolist(),
        }
        for point, report, polygon in zip(points, reports, vertices)
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
    points = tangential_critical_points(chart)
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
    inv = cyclic.invariants
    dual = dual_polygon(cyclic, tol)
    check = duality_index_check(cyclic, tol)
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
        "bifurcating": check is None,
        "dual": {
            "slope_angles_deg": [math.degrees(a) for a in dual.slopes.angles.tolist()],
            "vertices": dual.vertices.tolist(),
            "signed_perimeter": dual.signed_perimeter,
            "twice_radius_times_sum": 2.0 * cyclic.radius * inv.bifurcation_sum,
            "inradius": float(radius),
        },
    }
    if check is None:
        report["indices"] = {
            "withheld": True,
            "reason": "bifurcating polygon: the area Hessian is degenerate",
        }
        return report
    report["indices"] = {
        "withheld": False,
        "mu_area_numeric": check.mu_area_numeric,
        "mu_area_formula": check.mu_area_formula,
        "mu_dual_perimeter": check.mu_dual_perimeter,
        "identity_holds": check.identity_holds,
    }
    return report


BRACKET_WIDTH = 1e-12


def _family_angles(start, end, ts) -> tuple[np.ndarray, np.ndarray]:
    """Degrees of the family at each parameter in ``ts``, one row each, and
    their radians reduced as :class:`SlopeSystem` stores them."""
    t = np.asarray(ts, dtype=float)[:, None]
    # An angle beyond the float range reduces to NaN: its row breaks the
    # finite rule, whose error is a ValueError, as from build_chart.
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
    indices = zip(*(mu.tolist() for mu in index_pair(len(start), stack.half_turns, sums)))
    rows = []
    for i, (t, angles, total, pair) in enumerate(
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
                step["indices"] = list(pair)
        rows.append(step)
    return rows


def _cyclic_steps(values: list[float]) -> list[float]:
    """v_{i+1} - v_i cyclically: the turns of a list of angles, or the
    turns' rates from the angles' rates."""
    return [b - a for a, b in zip(values, values[1:] + values[:1])]


def _turn_tangents(start, end, t: float) -> list[float]:
    """tan(tau_i / 2) of the turns tau_i = s_{i+1} - s_i of the family at t,
    in plain floats; each angle is reduced as :class:`SlopeSystem` stores it
    before differencing: a remainder that rounds up to 2 pi is 0."""
    reduced = (math.radians((1.0 - t) * a + t * b) % TWO_PI for a, b in zip(start, end))
    angles = [0.0 if x == TWO_PI else x for x in reduced]
    return [math.tan(0.5 * turn) for turn in _cyclic_steps(angles)]


def _first_pole(turns, rates, lo: float, hi: float, flo: float) -> float | None:
    """The first t in (lo, hi] where a turn passes an odd multiple of 180
    degrees the way that takes T from the sign of flo to the other, or None:
    tan(tau / 2) falls from +inf to -inf as tau rises through pi.  Each turn
    is linear in t, at ``turns`` in degrees at lo and ``rates`` in degrees
    per unit t, so its pole takes one division."""
    poles = []
    for turn, rate in zip(turns, rates):
        if rate * flo > 0.0:
            # Float floor division: a turn beyond the float range gives NaN, not an error.
            below = 180.0 + 360.0 * ((turn - 180.0) // 360.0)
            t = lo + ((below + 360.0 if rate > 0.0 else below) - turn) / rate
            if lo < t <= hi:
                poles.append(t)
    return min(poles, default=None)


# The Newton steps of one proposal, and the step that ends them: where
# Newton converges, the error after a step s is near s**2 T'' / (2 T'),
# far inside BRACKET_WIDTH; the check catches a proposal where it is not.
NEWTON_STEPS = 8
NEWTON_STEP_MIN = 1e-8


def _newton_root(start, end, rates, lo: float, hi: float, flo: float, fhi: float) -> float:
    """A root of T in (lo, hi), where flo and fhi, sum p at lo and hi, differ
    in sign, in plain floats: Newton steps on T and dT/dt = sum (1 + tan(tau_i
    / 2)**2) d(tau_i / 2)/dt from the secant of flo and fhi, each kept
    inside the bracket that the signs of T so far leave (its ends
    included: T may be exactly 0 at one), or else its midpoint.  The turns
    change at ``rates``, in degrees per unit t."""
    halves = [math.radians(0.5 * rate) for rate in rates]
    a, b = lo, hi
    t = lo - flo * (hi - lo) / (fhi - flo)
    for _ in range(NEWTON_STEPS):
        tangents = _turn_tangents(start, end, t)
        value = sum(tangents)
        slope = sum((1.0 + x * x) * half for x, half in zip(tangents, halves))
        if flo * value <= 0.0:
            b = t
        else:
            a = t
        ahead = t - value / slope if slope else math.nan
        if not a <= ahead <= b:
            ahead = 0.5 * (a + b)
        if abs(ahead - t) <= NEWTON_STEP_MIN:
            return ahead
        t = ahead
    return t


def _proposed_root(start, end, lo: float, hi: float, flo: float, fhi: float) -> float:
    """Where the sign change of T in (lo, hi) is proposed to lie: the first
    pole of :func:`_first_pole`, else :func:`_newton_root`."""
    turns = _cyclic_steps([(1.0 - lo) * a + lo * b for a, b in zip(start, end)])
    rates = _cyclic_steps([b - a for a, b in zip(start, end)])
    pole = _first_pole(turns, rates, lo, hi, flo)
    return _newton_root(start, end, rates, lo, hi, flo, fhi) if pole is None else pole


def _halvings(lo: float, hi: float, root: float) -> list[tuple[float, bool]]:
    """The midpoints of halving (lo, hi) down to BRACKET_WIDTH as a root at
    ``root`` would give them, each with whether that halving keeps (lo, mid)."""
    path = []
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        low = mid > root
        path.append((mid, low))
        lo, hi = (lo, mid) if low else (mid, hi)
    return path


def _perimeter_sums(start, end, ts) -> list[float]:
    """Sum p = 2 T of the family at each parameter in ``ts``, from one
    :func:`turn_tangents` call on the rows that :func:`_family_angles`
    reduces."""
    return (2.0 * turn_tangents(_family_angles(start, end, ts)[1]).sum(axis=-1)).tolist()


def _is_pole(start, end, lo: float, hi: float) -> bool:
    """Whether T changes sign across (lo, hi) at a pole: some turn tangent,
    read off the reduced angles as T is, has opposite signs at lo and hi
    with |tan| >= 1 at both, as where two consecutive lines turn antiparallel."""
    low, high = turn_tangents(_family_angles(start, end, [lo, hi])[1])
    return bool(((low * high < 0.0) & (np.minimum(abs(low), abs(high)) >= 1.0)).any())


def _bracket(start, end, lo: float, hi: float, flo: float, fhi: float) -> dict | None:
    """Bisect a sign change of sum p between the rows lo and hi, of charted
    sums flo and fhi, to BRACKET_WIDTH: the bracket, or None at a pole.

    Sum p is twice the turn sum T, whose sign alone decides each halving:
    it keeps (lo, mid) when flo * f(mid) <= 0 and (mid, hi) otherwise, where
    f = 2 T and flo is f at lo (the charted sum while lo is a row).  A round
    proposes where T changes sign (:func:`_proposed_root`), evaluates T at
    the midpoints of that proposal's halvings in one :func:`_perimeter_sums`
    call, and takes them up to the first that T decides otherwise; the next
    round proposes from there.  So the bracket is bisection's on T, whatever
    the proposal.  T is finite between poles, so parallel lines at a
    midpoint decide nothing, and the sign change is a root unless
    :func:`_is_pole` holds on the final bracket.
    """
    while hi - lo > BRACKET_WIDTH:
        root = _proposed_root(start, end, lo, hi, flo, fhi)
        proposed = _halvings(lo, hi, root)
        sums = _perimeter_sums(start, end, [mid for mid, _ in proposed])
        for (mid, keeps_low), fmid in zip(proposed, sums):
            low = flo * fmid <= 0.0
            if low:
                hi, fhi = mid, fmid
            else:
                lo, flo = mid, fmid
            if low != keeps_low:
                break
    if _is_pole(start, end, lo, hi):
        return None
    mid = 0.5 * (lo + hi)
    return {
        "t_low": float(lo),
        "t_high": float(hi),
        "perimeter_sum_low": float(flo),
        # The arithmetic of _family_angles' degrees, in plain floats.
        "angles_deg_root": [(1.0 - mid) * a + mid * b for a, b in zip(start, end)],
    }


def family_report(
    start: list[float],
    end: list[float],
    steps: int,
    tol: Tolerances = DEFAULT_TOL,
) -> dict:
    """Interpolate two slope systems and track the perimeter sum.

    Produces one row per step and refines every sign change of the
    perimeter sum between two valid rows by bisection on the turn sum
    (:func:`_bracket`) to a bracket of width 1e-12 in the family parameter.
    Each sign change is a root and gets a bracket, unless its bisection
    ends at a pole, where two consecutive lines turn antiparallel.
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
        bracket = _bracket(start, end, a["t"], b["t"], pa, pb)
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


def analyze(kind: str, data: dict, tol: Tolerances = DEFAULT_TOL, steps: int = 11) -> dict:
    """The report of an input file's ``data`` read as ``kind``, "slopes",
    "cyclic" or "family" (``steps`` rows).  A fault of the data raises an
    :class:`~polyslope.errors.InputError`."""
    if kind == "slopes":
        return slopes_report(validate_slopes_input(data), tol)
    if kind == "cyclic":
        return cyclic_report(*validate_cyclic_input(data), tol)
    if kind == "family":
        return family_report(*validate_family_input(data), steps, tol)
    raise ValueError(f"unknown input kind {kind!r}")
