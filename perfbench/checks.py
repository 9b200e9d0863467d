"""Checks of the program's reports against the closed-form oracles.

Each check returns a list of problems; an empty list means the report
agrees with the oracles.  Relative tolerances are set far above the
agreement measured between the oracles and the program (about 1e-14) and
far below any real error.
"""

import math
import xml.etree.ElementTree as ElementTree

import numpy as np

import oracles

REL = 1e-9
# The command line's own bound on the finite-difference gradient norm.
GRADIENT_BOUND = 1e-6
# The program's default tolerance for the exceptional locus,
# |sum p| <= 1e-9 * sum|p|, and for the bifurcation locus, |B| < 1e-9 * sum|tan|.
EXCEPTIONAL = 1e-9


def _close(a, b, scale, what, problems):
    if not abs(a - b) <= REL * scale:
        problems.append(f"{what}: {a!r} vs oracle {b!r}")


def _sign(x) -> int:
    return 1 if x > 0 else -1


def check_slopes(report: dict, angles_deg) -> list[str]:
    problems = []
    radians = np.radians(angles_deg)
    n = len(radians)
    p = oracles.unit_perimeters(radians)
    scale = float(np.sum(np.abs(p)))
    total = float(np.sum(p))
    chart = report["chart"]
    got = np.asarray(chart["unit_perimeters"])
    if got.shape != p.shape or float(np.max(np.abs(got - p))) > REL * scale:
        problems.append("unit perimeters differ from 2 sum tan(tau/2)")
    _close(chart["perimeter_sum"], total, scale, "perimeter sum", problems)
    k = oracles.half_turns(radians)
    right, left = oracles.turn_counts(radians)
    turning = report["turning"]
    if (turning["half_turns"], turning["right_turns"], turning["left_turns"]) != (k, right, left):
        problems.append("turning data")
    if chart["positive_count"] != k - 1 or chart["expected_positive_count"] != k - 1:
        problems.append("positive count is not k - 1")
    for side, dims in oracles.topology(n, k).items():
        shape = report["topology"][side]
        if (shape["sphere_dim"], shape["disc_dim"]) != dims:
            problems.append(f"topology of the {side}")
    critical = report["critical"]
    if critical["exceptional"] != (abs(total) <= EXCEPTIONAL * scale):
        problems.append("exceptional flag")
        return problems
    if critical["exceptional"]:
        return problems
    radius = math.sqrt(2.0 / abs(total))
    points = critical["points"]
    if len(points) != 2:
        return problems + ["expected two critical points"]
    for point, r in zip(points, (radius, -radius)):
        _close(point["inradius"], r, radius, "inradius", problems)
        _close(point["area"], float(_sign(total)), 1.0, "area", problems)
        _close(point["area"], 0.5 * point["perimeter"] * point["inradius"], 1.0,
               "area = perimeter r / 2", problems)
        expected = oracles.inertia_index(p, _sign(r))
        if not point["index_eigen"] == point["index_formula"] == expected:
            problems.append(
                f"index {point['index_eigen']}/{point['index_formula']}, inertia {expected}"
            )
        if not point["agreement"]:
            problems.append("index routes disagree")
        if not point["gradient_norm"] < GRADIENT_BOUND:
            problems.append(f"gradient norm {point['gradient_norm']!r}")
        problems.extend(_polygon_problems(point, radians))
    return problems


def _polygon_problems(point, radians) -> list[str]:
    """The vertices realize the slopes, the area and the signed perimeter."""
    verts = np.asarray(point["vertices"], dtype=float)
    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    directions = np.column_stack([np.cos(radians), np.sin(radians)])
    along = np.einsum("ij,ij->i", edges, directions)
    across = edges[:, 0] * directions[:, 1] - edges[:, 1] * directions[:, 0]
    size = float(np.sum(lengths))
    problems = []
    if float(np.max(np.abs(across))) > 1e-8 * size:
        problems.append("an edge is not parallel to its slope")
    nxt = np.roll(verts, -1, axis=0)
    area = 0.5 * float(np.sum(verts[:, 0] * nxt[:, 1] - nxt[:, 0] * verts[:, 1]))
    _close(area, point["area"], 1.0 + abs(area), "shoelace area", problems)
    perimeter = float(np.sum(np.where(along > 0, lengths, -lengths)))
    _close(perimeter, point["perimeter"], size, "signed perimeter of the vertices", problems)
    return problems


def check_cyclic(report: dict, radius: float, phis_deg) -> list[str]:
    problems = []
    expected = oracles.cyclic_expected(radius, np.radians(phis_deg))
    inv = report["invariants"]
    if inv["edge_orientations"] != expected["orientations"]:
        problems.append("edge orientations")
    half = np.asarray(inv["half_angles_rad"])
    if float(np.max(np.abs(half - expected["half_angles"]))) > REL:
        problems.append("half angles")
    if (inv["positive_edges"], inv["winding"]) != (expected["positive_edges"], expected["winding"]):
        problems.append("positive edges or winding")
    scale = expected["bifurcation_scale"]
    _close(inv["bifurcation_sum"], expected["bifurcation_sum"], scale, "tangent sum B", problems)
    if report["bifurcating"] != (abs(expected["bifurcation_sum"]) < EXCEPTIONAL * scale):
        problems.append("bifurcation flag")
    dual_scale = 2.0 * radius * scale
    _close(report["dual"]["signed_perimeter"], expected["dual_perimeter"], dual_scale,
           "dual perimeter 2RB", problems)
    _close(report["dual"]["twice_radius_times_sum"], expected["dual_perimeter"], dual_scale,
           "2RB", problems)
    indices = report["indices"]
    if report["bifurcating"]:
        return problems
    if indices.get("withheld"):
        return problems + ["indices withheld off the bifurcation locus"]
    mu = expected["mu_area"]
    if not indices["mu_area_numeric"] == indices["mu_area_formula"] == mu:
        problems.append(
            f"area index {indices['mu_area_numeric']}/{indices['mu_area_formula']}, formula {mu}"
        )
    if indices.get("mu_dual_perimeter") != expected["mu_dual"]:
        problems.append(
            f"dual index {indices.get('mu_dual_perimeter')}, expected n - 3 - mu = "
            f"{expected['mu_dual']}"
        )
    if not indices["identity_holds"]:
        problems.append("duality identity reported false")
    return problems


def check_family(report: dict, start, end, steps: int) -> list[str]:
    problems = []
    rows = report["rows"]
    if len(rows) != steps:
        return [f"{len(rows)} rows for {steps} steps"]
    sums = []
    for i, row in enumerate(rows):
        t = i / (steps - 1)
        radians = np.radians(oracles.interpolated_deg(start, end, t))
        p = oracles.unit_perimeters(radians)
        total = float(np.sum(p))
        sums.append(total)
        if row["status"] != "ok" or row["t"] != t:
            problems.append(f"row {i} status {row['status']}")
            continue
        _close(row["perimeter_sum"], total, float(np.sum(np.abs(p))), f"row {i} sum p", problems)
        if row["exceptional"] or row["critical_points"] != 2:
            problems.append(f"row {i} reports no critical points")
            continue
        if row["area_sign"] != _sign(total):
            problems.append(f"row {i} area sign")
        expected = [oracles.inertia_index(p, +1), oracles.inertia_index(p, -1)]
        if row["indices"] != expected:
            problems.append(f"row {i} indices {row['indices']}, inertia {expected}")
    crossings = [i for i in range(steps - 1) if sums[i] * sums[i + 1] < 0.0]
    brackets = report["sign_changes"]
    if len(brackets) != len(crossings):
        return problems + [f"{len(brackets)} sign changes, oracle has {len(crossings)}"]
    for i, bracket in zip(crossings, brackets):
        lo, hi = bracket["t_low"], bracket["t_high"]
        if not 0.0 <= hi - lo <= 1e-11:
            problems.append(f"bracket width {hi - lo!r}")
        root = oracles.family_root(start, end, i / (steps - 1), (i + 1) / (steps - 1))
        if not lo - 1e-9 <= root <= hi + 1e-9:
            problems.append(f"bracket [{lo!r}, {hi!r}] misses the root {root!r}")
        if _sign(bracket["perimeter_sum_low"]) != _sign(sums[i]):
            problems.append("sign of sum p at the lower end")
    return problems


SVG = "{http://www.w3.org/2000/svg}"


def check_svg(text: str, n: int) -> list[str]:
    """The file parses as SVG and holds a polygon with the input's n vertices."""
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    if root.tag != f"{SVG}svg":
        return [f"root element {root.tag}"]
    for polygon in root.iter(f"{SVG}polygon"):
        points = [pair.split(",") for pair in polygon.get("points", "").split()]
        coords = [float(v) for pair in points for v in pair]
        if len(points) == n and all(math.isfinite(v) for v in coords):
            return []
    return [f"SVG holds no polygon with {n} vertices"]
