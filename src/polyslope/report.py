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
    bifurcation_test,
    cyclic_invariants,
    dual_polygon,
    duality_index_check,
)
from .errors import InputSchemaError, ParallelLines
from .geometry import SlopeSystem, signed_perimeter, turn_counts, turning_sum
from .slope_space import build_chart, topology_report
from .tangential import (
    ExceptionalSpace,
    critical_gradient_norm,
    exceptional,
    morse_index_eigen,
    morse_index_sign_count,
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
    start = _angle_list(data, "start_angles_deg")
    end = _angle_list(data, "end_angles_deg")
    if len(start) != len(end):
        raise InputSchemaError("'start_angles_deg' and 'end_angles_deg' differ in length")
    return start, end


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


def _critical_point_dict(point, tol: Tolerances) -> dict:
    report = morse_index_eigen(point)
    gradient_norm, gradient_bound = critical_gradient_norm(point, tol=tol)
    return {
        "inradius": float(point.inradius),
        "perimeter": float(point.perimeter),
        "area": float(point.area),
        "incenter": [float(point.incenter[0]), float(point.incenter[1])],
        "winding": int(point.winding),
        "right_turns": int(point.right_turns),
        "left_turns": int(point.left_turns),
        "gradient_norm": float(gradient_norm),
        "gradient_bound": float(gradient_bound),
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "index_eigen": int(report.index_eigen),
        "index_formula": int(report.index_formula),
        "agreement": bool(report.agreement),
        "vertices": [[float(x), float(y)] for x, y in point.polygon.vertices],
    }


def slopes_report(angles_deg: list[float], tol: Tolerances | None = None) -> dict:
    tol = DEFAULT_TOL if tol is None else tol
    system = SlopeSystem.from_degrees(angles_deg)
    total, half_turns = turning_sum(system, tol)
    right, left = turn_counts(system)
    chart = build_chart(system, tol)
    topology = topology_report(system, tol)
    report = {
        "kind": "slopes",
        "input": {
            "angles_deg": [float(a) for a in angles_deg],
            "angles_rad": [float(s.angle) for s in system],
        },
        "tolerances": tol.to_dict(),
        "turning": {
            "angle_sum_rad": float(total),
            "angle_sum_deg": float(math.degrees(total)),
            "half_turns": int(half_turns),
            "right_turns": int(right),
            "left_turns": int(left),
        },
        "chart": {
            "unit_perimeters": [float(p) for p in chart.unit_perimeters],
            "area_constants": [float(c) for c in chart.area_constants],
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
    if isinstance(points, ExceptionalSpace):
        report["critical"] = {"exceptional": True, "points": []}
    else:
        report["critical"] = {
            "exceptional": False,
            "points": [_critical_point_dict(p, tol) for p in points],
        }
    return report


def cyclic_report(
    radius: float,
    phis_deg: list[float],
    center: tuple[float, float] = (0.0, 0.0),
    tol: Tolerances | None = None,
) -> dict:
    tol = DEFAULT_TOL if tol is None else tol
    cyclic = CyclicPolygon.from_degrees(radius, phis_deg, center)
    inv = cyclic_invariants(cyclic, tol)
    with np.errstate(over="raise"):
        try:
            dual = dual_polygon(cyclic)
            dual_perimeter = signed_perimeter(dual.polygon, dual.slopes, tol)
            twice_radius_sum = float(2.0 * np.float64(radius) * inv.bifurcation_sum)
        except FloatingPointError as exc:
            raise InputSchemaError(f"the dual polygon overflows the float range ({exc})") from exc
    bifurcating = bifurcation_test(cyclic, tol)
    report = {
        "kind": "cyclic",
        "input": {
            "radius": float(radius),
            "phis_deg": [float(p) for p in phis_deg],
            "phis_rad": [float(p) for p in cyclic.phis],
            "center": [float(center[0]), float(center[1])],
        },
        "tolerances": tol.to_dict(),
        "invariants": {
            "edge_orientations": [int(e) for e in inv.orientations],
            "half_angles_rad": [float(a) for a in inv.half_angles],
            "half_angles_deg": [float(math.degrees(a)) for a in inv.half_angles],
            "positive_edges": int(inv.positive_edges),
            "winding": int(inv.winding),
            "bifurcation_sum": float(inv.bifurcation_sum),
        },
        "bifurcating": bool(bifurcating),
        "dual": {
            "slope_angles_deg": [float(s.degrees) for s in dual.slopes],
            "vertices": [[float(x), float(y)] for x, y in dual.polygon.vertices],
            "signed_perimeter": float(dual_perimeter),
            "twice_radius_times_sum": twice_radius_sum,
            "inradius": float(dual.inradius),
        },
    }
    if bifurcating:
        report["indices"] = {
            "withheld": True,
            "reason": "bifurcating polygon: the area Hessian is degenerate",
        }
        return report
    check = duality_index_check(cyclic, tol)
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


def _interpolated(start: list[float], end: list[float], t: float) -> list[float]:
    return [(1.0 - t) * a + t * b for a, b in zip(start, end)]


def _family_step(start, end, t, tol) -> dict:
    angles = _interpolated(start, end, t)
    step = {"t": float(t), "angles_deg": [float(a) for a in angles]}
    try:
        system = SlopeSystem.from_degrees(angles)
        chart = build_chart(system, tol)
    except ParallelLines as exc:
        step["status"] = "invalid"
        step["reason"] = str(exc)
        return step
    step["status"] = "ok"
    step["perimeter_sum"] = float(chart.perimeter_sum)
    if exceptional(chart, tol):
        step["exceptional"] = True
        step["critical_points"] = 0
    else:
        # The two critical points, of inradius +r and -r, have the area sign of sum p.
        step["exceptional"] = False
        step["critical_points"] = 2
        step["area_sign"] = int(math.copysign(1.0, chart.perimeter_sum))
        step["indices"] = [morse_index_sign_count(chart, r) for r in (1.0, -1.0)]
    return step


def family_report(
    start: list[float],
    end: list[float],
    steps: int,
    tol: Tolerances | None = None,
) -> dict:
    """Interpolate two slope systems and track the perimeter sum.

    Produces one row per step and refines every sign change of the perimeter
    sum by bisection to a bracket of width 1e-12 in the family parameter.
    A bisection that reaches parallel lines has found a pole, not a root.
    """
    tol = DEFAULT_TOL if tol is None else tol
    if steps < 2:
        raise InputSchemaError("family needs at least 2 steps")
    rows = [_family_step(start, end, i / (steps - 1), tol) for i in range(steps)]
    brackets = []
    for a, b in zip(rows[:-1], rows[1:]):
        if a.get("status") != "ok" or b.get("status") != "ok":
            continue
        pa, pb = a["perimeter_sum"], b["perimeter_sum"]
        if pa == 0.0 or pa * pb >= 0.0:
            continue
        lo, hi = a["t"], b["t"]
        flo = pa
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            # Only the sign of sum p matters here; critical points next to its
            # root are nearly degenerate and their indices are not reported.
            try:
                system = SlopeSystem.from_degrees(_interpolated(start, end, mid))
                fmid = float(build_chart(system, tol).perimeter_sum)
            except ParallelLines:
                break
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        else:
            brackets.append(
                {
                    "t_low": float(lo),
                    "t_high": float(hi),
                    "perimeter_sum_low": float(flo),
                    "angles_deg_root": [float(a) for a in _interpolated(start, end, 0.5 * (lo + hi))],
                }
            )
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
