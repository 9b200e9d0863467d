"""The space of polygons with prescribed edge slopes and its radii chart.

A valid slope system (pairwise non-parallel lines) decomposes every polygon
``Q(e_1, ..., e_n)`` into the triangles ``Q(e_1, e_{i+1}, e_{i+2})`` for
``i = 1..n-2``.  Each triangle carries a unique tritangent circle lying on one
common side of its three directed edge lines; its signed radius ``r_i`` is the
coordinate of the chart.  Writing ``p_i`` for the signed perimeter of the
homothetic triangle with signed inradius +1, area and perimeter become

    area(Q)      = 1/2 * sum_i p_i * r_i**2
    perimeter(Q) = sum_i p_i * r_i

which drives everything downstream: critical points, Hessians and the
topology of the space.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NonIntegralTurn,
    ParallelLines,
    ReconstructionDegenerate,
    SignatureMismatch,
    SlopeMismatch,
)
from .geometry import (
    EPS,
    TWO_PI,
    PolygonChain,
    SlopeSystem,
    _cycled,
    edge_offsets,
    edges_against_slopes,
    integral_ratio,
    left_normal,
    line_gap,
    line_vertices,
    oriented_areas,
    polygon_from_lines,
    require_distinct,
    signed_perimeter,
    signed_perimeters,
)
from .tolerances import DEFAULT_TOL, Tolerances


@dataclass(frozen=True, eq=False)
class RadiiChart:
    """Chart data of a slope system, closed forms in its angle array.

    ``unit_perimeters[i]`` is the signed perimeter p_i of the decomposition
    triangle with slopes (s_1, s_{i+1}, s_{i+2}) scaled to signed inradius
    +1; ``area_constants[i]`` is the positive constant c_i relating the
    triangle's area to the squared distance of its apex from the first edge
    line (closed forms in :func:`build_chart`), computed on first read.
    ``perimeter_sum`` is sum(p_i); ``angle_sum`` (the angle sum t),
    ``half_turns`` (the integer k with t = k * pi) and ``right_turns`` come
    from :func:`turning_rule`; every chart keeps the rules of :func:`chart_stack`.
    Both critical points and all cyclic relabelings share this turning data.
    """

    system: SlopeSystem
    unit_perimeters: np.ndarray
    perimeter_sum: float
    angle_sum: float
    half_turns: int
    right_turns: int

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def left_turns(self) -> int:
        return self.n - self.right_turns

    @property
    def winding(self) -> int:
        """Turning number of every polygon of the system, w = (k - RT) / 2.

        With d_i = (a_{i+1} - a_i) mod 2pi and sum d_i = 2pi m, the line
        turns give k pi = 2pi m - pi RT and the turns wrapped to (-pi, pi)
        give 2pi w = 2pi m - 2pi RT.
        """
        return (self.half_turns - self.right_turns) // 2

    @property
    def positive_mask(self) -> np.ndarray:
        return self.unit_perimeters > 0

    @functools.cached_property
    def area_constants(self) -> np.ndarray:
        constants = _area_constants(self.system.angles)
        constants.setflags(write=False)
        return constants

    @functools.cached_property
    def well_conditioned(self) -> "RadiiChart":
        """This chart in the cyclic relabeling that minimizes max|p| / |p_1|.

        The first decomposition triangle owns the implicit coordinate of the
        constrained chart, so its unit perimeter divides every derivative of
        the implicit function and the roundoff of those derivatives grows
        with max|p| / |p_1|.  Critical points, their indices and gradient
        vanishing are invariant under cyclic relabeling, as are the turning
        data and so, by the signature law, the number of positive p_i.
        Computed on first read, from the closed forms on all n relabelings.
        """
        n = self.n
        # Row k holds the angles of the system relabeled to start at slope k.
        rotations = self.system.angles[(np.arange(n)[:, None] + np.arange(n)) % n]
        perimeters = _unit_perimeters(rotations)
        k = int(np.argmin(np.max(np.abs(perimeters), axis=1) / np.abs(perimeters[:, 0])))
        chosen = perimeters[k]
        chosen.setflags(write=False)
        turning = self.angle_sum, self.half_turns, self.right_turns
        return RadiiChart(self.system.rotated(k), chosen, float(np.sum(chosen)), *turning)


@dataclass(frozen=True)
class ComponentShape:
    """Product-of-sphere-and-disc descriptor for one sign component."""

    sphere_dim: int
    disc_dim: int

    @property
    def empty(self) -> bool:
        return self.sphere_dim < 0

    def describe(self) -> str:
        if self.empty:
            return "empty"
        return f"S^{self.sphere_dim} x D^{self.disc_dim}"


@dataclass(frozen=True)
class TopologyReport:
    """Homeomorphism type of the two area-sign components."""

    half_turns: int
    negative_component: ComponentShape
    positive_component: ComponentShape


@dataclass(frozen=True)
class ChartCoordinates:
    """Quadratic-form coordinates of a polygon, with optional normalization.

    ``x[i]`` is sqrt(c_i) times the signed distance of vertex ``v_{i+2}`` from
    the first edge line; the area of the polygon equals the signed sum of
    squares split by the signs of the unit perimeters.  ``normalized`` holds
    the projection x / sqrt(sum of positive-block squares) when the polygon
    has area +1 and the positive block is nonempty, else None.
    """

    x: np.ndarray
    normalized: np.ndarray | None


def tritangent_circle(angles, offsets) -> tuple[np.ndarray, float | np.ndarray]:
    """Center and signed radius of the one-side tritangent circle.

    Of the four circles tangent to all three directed lines, exactly one lies
    entirely to the left of every line or entirely to the right of every
    line: the solution (c, rho) of n_j . c - rho = d_j, j = 1..3, whose
    center has the same signed distance rho from each line.  The other three
    sign patterns qualify only when rho is zero (concurrent lines), where
    they give the same point.  The signed radius is positive in the all-left
    case and negative in the all-right case.

    ``angles`` and ``offsets`` may be stacked with shape (..., 3); the result
    then has shapes (..., 2) and (...), one circle per triple.
    """
    angles = np.asarray(angles, dtype=float)
    rhs = np.asarray(offsets, dtype=float)
    matrix = np.stack((-np.sin(angles), np.cos(angles), -np.ones_like(angles)), axis=-1)
    try:
        solution = np.linalg.solve(matrix, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ReconstructionDegenerate("no one-side tritangent circle found") from exc
    if solution.ndim == 1:
        return solution[:2], float(solution[2])
    return solution[..., :2], solution[..., 2]


# Kept while perfbench/tracer.py traces it; no program path calls it.
def unit_triangle(
    a: float,
    b: float,
    c: float,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[PolygonChain, float]:
    """Triangle with edges codirected with the slopes at angles (a, b, c) and
    signed inradius +1.

    The inscribed circle is centered at the origin, so each edge line is the
    left-of-circle tangent with normal offset -1.  Returns the triangle and
    its signed perimeter: the geometric reference for :func:`build_chart`.
    """
    system = SlopeSystem((a, b, c))
    system.require_pairwise_nonparallel(tol)
    triangle = polygon_from_lines(system.angles.tolist(), (-1.0, -1.0, -1.0), tol)
    return triangle, signed_perimeter(triangle, system, tol)


def _unit_perimeters(angles: np.ndarray) -> np.ndarray:
    """p_i by the closed form of :func:`build_chart`, along the last axis.

    Triangle i turns by x, y - x and -y, so 2 * sum tan(turn / 2) equals the
    product form of p_i; products keep the relative accuracy that sums lose.
    The x and y of all triangles are the angles s_k - s_1, one place apart.
    """
    half = np.tan(0.5 * (angles[..., 1:] - angles[..., :1]))
    turn = angles[..., 2:] - angles[..., 1:-1]
    return -2.0 * half[..., :-1] * np.tan(0.5 * turn) * half[..., 1:]


def _area_constants(angles: np.ndarray) -> np.ndarray:
    """c_i by the closed form of :func:`build_chart`, along the last axis."""
    sines = np.sin(angles[..., 1:] - angles[..., :1])
    turn = angles[..., 2:] - angles[..., 1:-1]
    return np.abs(np.sin(turn)) / (2.0 * np.abs(sines[..., :-1] * sines[..., 1:]))


def build_chart(system: SlopeSystem, tol: Tolerances = DEFAULT_TOL) -> RadiiChart:
    """Chart of a slope system: unit perimeters, area constants, signature.

    With x = s_{i+1} - s_1 and y = s_{i+2} - s_1 the chart constants are

        p_i = -2 tan(x/2) tan((y-x)/2) tan(y/2)
        c_i = |sin(y-x)| / (2 |sin x sin y|)

    that is, twice the oriented area of the unit-inradius triangle and its
    area over its squared apex height above e_1.  The system is one row of
    :func:`chart_stack`, and raises the error of the first rule it breaks.
    """
    stack = chart_stack(system.angles, tol)
    stack.require()
    perimeters, total, angle_sum, k, right_turns = stack[:5]
    perimeters.setflags(write=False)
    return RadiiChart(system, perimeters, float(total), float(angle_sum), int(k), int(right_turns))


# The chart rules, in the order they are checked.
LINES, INTEGRAL, RANGE, SIGNATURE = range(4)


@functools.lru_cache(maxsize=None)
def _slope_pairs(n: int, parallel: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slope pairs (i, j) in the order the lines rule checks them, with the
    least line gap of each: the consecutive pairs (i, i + 1 mod n) by
    ``DEFAULT_TOL.parallel``, as :class:`SlopeSystem` does, then all i < j."""
    ring = np.arange(n)
    first, second = np.triu_indices(n, 1)
    limits = np.repeat([DEFAULT_TOL.parallel, parallel], [n, len(first)])
    return np.append(ring, first), np.append((ring + 1) % n, second), limits


def _parallel_pairs(angles: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The lines rule along the last axis: which pairs of :func:`_slope_pairs`
    have a :func:`line_gap` below their limit, as the constructor's loop tests."""
    first, second, limits = _slope_pairs(angles.shape[-1], tol.parallel)
    return line_gap(angles.take(first, -1), angles.take(second, -1)) < limits


def turning_rule(angles: np.ndarray):
    """The turning rule along the last axis: t, the line turns (b - a) mod pi
    of consecutive angles added in order; k, the integer nearest t / pi; the
    right turns, where (b - a) mod 2pi >= pi; and the INTEGRAL and RANGE
    masks, t / pi off k, and k outside 1..n - 1 (or NaN)."""
    steps = _cycled(angles, 1, -1) - angles
    total = np.add.accumulate(steps % math.pi, axis=-1)[..., -1]
    k, off = integral_ratio(total / math.pi, angles.shape[-1])
    right_turns = (steps % TWO_PI >= math.pi).sum(axis=-1)
    return total, k, right_turns, off, ~((k >= 1) & (k <= angles.shape[-1] - 1))


class ChartStack(NamedTuple):
    """The chart rules on each row of an (..., n) angle stack: the chart
    data of each row, its chart's bit for bit where it keeps every rule, and
    ``broken``, the mask of the rows that break each rule, in rule order."""

    unit_perimeters: np.ndarray
    perimeter_sums: np.ndarray
    angle_sums: np.ndarray
    half_turns: np.ndarray
    right_turns: np.ndarray
    broken: tuple
    angles: np.ndarray
    tol: Tolerances

    @property
    def ok(self) -> np.ndarray:
        return ~np.logical_or.reduce(self.broken)

    def require(self, *rules: int, row=()) -> None:
        """Raise the error of the first of ``rules`` (all by default) that a
        row (the one row by default) breaks, working out the failing pair and
        the message only here.  A NaN k raises ValueError, as round() does."""
        rule = next((rule for rule in rules or range(4) if self.broken[rule][row]), None)
        angles, k = self.angles[row], self.half_turns[row]
        if rule == LINES:
            first, second, _ = _slope_pairs(len(angles), self.tol.parallel)
            at = int(np.argmax(_parallel_pairs(angles, self.tol)))
            pair = f"slopes {first[at]} and {second[at]} are parallel as lines"
            raise ParallelLines(f"consecutive {pair}" if at < len(angles) else pair)
        if rule == INTEGRAL:
            total = float(self.angle_sums[row])
            raise NonIntegralTurn(f"angle sum {total!r} is not an integral multiple of pi")
        if rule == RANGE:
            raise NonIntegralTurn(f"turning number {int(k)} outside {{1, ..., n - 1}}")
        if rule == SIGNATURE:
            positive = np.count_nonzero(self.unit_perimeters[row] > 0)
            raise SignatureMismatch(f"{positive} positive unit perimeters, expected {int(k) - 1}")


def chart_stack(angles: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> ChartStack:
    """The one definition of a chart, on each row of an (..., n) stack of
    angles reduced as :class:`SlopeSystem` stores them: lines apart (the
    consecutive ones by ``DEFAULT_TOL.parallel``, all by ``tol.parallel``),
    an angle sum k * pi with integral k in 1..n - 1, and k - 1 positive p_i."""
    total, k, right_turns, off, outside = turning_rule(angles)
    perimeters = _unit_perimeters(angles)
    lines = _parallel_pairs(angles, tol).any(axis=-1)
    broken = lines, off, outside, (perimeters > 0).sum(axis=-1) != k - 1
    sums = perimeters.sum(axis=-1)
    return ChartStack(perimeters, sums, total, k, right_turns, broken, angles, tol)


def polygon_from_radii(
    chart: RadiiChart,
    radii,
    tol: Tolerances = DEFAULT_TOL,
) -> PolygonChain | np.ndarray:
    """Polygon whose decomposition triangles have the given signed inradii.

    The translation representative is canonical: the first edge line passes
    through the origin and the center of the first decomposition circle
    projects onto the origin along that line.  Edge lines are placed
    sequentially: the circle of triangle i is tangent to e_1 and e_{i+1} on
    the matching sides, and e_{i+2} is the matching-side tangent with slope
    s_{i+2}.  A zero radius makes the three lines concurrent.  With theta_k
    the angle from s_1 to s_k and T_k = tan(theta_k / 2), line k crosses e_1
    at t_k u_1 and circle i is centered at c_i u_1 + r_i n_1, where t_k =
    c_i + r_i T_k for each triangle i that has line k.  So c_0 = 0, centers
    step by (r_{i-1} - r_i) T_{i+1}, and line k has offset -t_k sin(theta_k).

    ``radii`` may also be a (K, n - 2) stack, one polygon per row, built at
    once: the result is then the (K, n, 2) stack of their vertices, each row
    checked as a single polygon is, and a failing check names the first row.
    """
    radii = np.asarray(radii, dtype=float)
    n = chart.n
    if radii.shape[-1:] != (n - 2,) or radii.ndim > 2:
        raise ValueError(f"expected {n - 2} radii, got shape {radii.shape}")
    if not np.all(np.isfinite(radii)):
        raise ValueError("radii must be finite")
    angles = chart.system.angles
    # Circle i sits on e_1 and e_{i+1}, which must meet: line_vertices checks
    # those pairs as it checks its own.
    pairs = np.column_stack((angles[2:-1], np.full(n - 3, angles[0])))
    line_vertices(pairs, np.zeros_like(pairs), tol)
    rows = radii.reshape(-1, n - 2)
    theta = angles - angles[0]
    half = np.tan(0.5 * theta)
    centers = np.cumsum(-np.diff(rows, axis=1, prepend=rows[:, :1]) * half[1:-1], axis=1)
    # t_k comes from triangle max(k - 2, 0); sin(theta_0) = 0 keeps e_1 at 0.
    owner = np.maximum(np.arange(-2, n - 2), 0)
    offsets = (centers[:, owner] + rows[:, owner] * half) * np.sin(-theta)
    vertices = line_vertices(angles, offsets, tol)
    require_distinct(vertices)
    # The chart laws hold on every row, to their roundoff of 2048 eps sum|terms|.
    terms = np.stack((0.5 * chart.unit_perimeters * rows**2, chart.unit_perimeters * rows))
    perimeters = signed_perimeters(vertices, angles, tol)
    measured = np.stack((oriented_areas(vertices), perimeters))
    errors = np.abs(measured - np.sum(terms, axis=-1))
    bounds = 2048.0 * EPS * np.sum(np.abs(terms), axis=-1)
    violated = (errors > bounds).any(axis=0)
    if violated.any():
        area_err, perim_err = errors[:, np.argmax(violated)].tolist()
        raise ReconstructionDegenerate(
            f"reconstruction violates chart laws (area error {area_err!r}, "
            f"perimeter error {perim_err!r})"
        )
    return PolygonChain(vertices[0]) if radii.ndim == 1 else vertices


def _line_offsets(chart: RadiiChart, vertices: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Offsets of the edge lines of an (n, 2) vertex list against the chart's
    slopes, its edges read as :class:`PolygonChain` reads them; SlopeMismatch
    for a wrong edge count or for the first edge off its slope."""
    if len(vertices) != chart.n:
        raise SlopeMismatch(f"polygon has {len(vertices)} edges, chart expects {chart.n}")
    angles = chart.system.angles
    mismatched = edges_against_slopes(vertices, angles, tol)[3]
    if mismatched.any():
        i = int(np.argmax(mismatched))
        raise SlopeMismatch(f"edge {i} does not match slope {i}")
    return edge_offsets(vertices, angles)


def decomposition_lines(n: int) -> np.ndarray:
    """Row i indexes the lines (0, i + 1, i + 2) of decomposition triangle i."""
    return np.arange(1, n - 1)[:, None] * [0, 1, 1] + [0, 0, 1]


def _decomposition_radii(chart: RadiiChart, offsets: np.ndarray) -> np.ndarray:
    """:func:`radii_of_polygon` from the polygon's line offsets."""
    lines = decomposition_lines(chart.n)
    _, radii = tritangent_circle(chart.system.angles[lines], offsets[lines])
    return radii


def radii_of_polygon(
    chart: RadiiChart,
    polygon: PolygonChain,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Signed inradii of the polygon's decomposition triangles."""
    return _decomposition_radii(chart, _line_offsets(chart, polygon.vertices, tol))


def _decomposition_triangles(
    chart: RadiiChart, offsets: np.ndarray, tol: Tolerances
) -> np.ndarray:
    """:func:`decomposition_polygons` from the polygon's line offsets."""
    lines = decomposition_lines(chart.n)
    vertices = line_vertices(chart.system.angles[lines], offsets[lines], tol)
    require_distinct(vertices)
    return vertices


def decomposition_polygons(
    chart: RadiiChart,
    polygon: PolygonChain,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Triangles Q(e_1, e_{i+1}, e_{i+2}) built from the polygon's edge lines,
    as one (n - 2, 3, 2) stack of vertex lists, each checked as a
    :class:`PolygonChain` is."""
    return _decomposition_triangles(chart, _line_offsets(chart, polygon.vertices, tol), tol)


def _chart_coordinates(
    chart: RadiiChart, vertices: np.ndarray, offsets: np.ndarray
) -> ChartCoordinates:
    """:func:`normalized_coordinates` of an (n, 2) vertex list and its line offsets."""
    heights = vertices[2:] @ left_normal(chart.system.angles[0]) - offsets[0]
    x = np.sqrt(chart.area_constants) * heights
    normalized = None
    mask = chart.positive_mask
    if np.any(mask):
        positive_norm_sq = float(np.sum(x[mask] ** 2))
        area = float(oriented_areas(vertices))
        if positive_norm_sq > 0.0 and abs(area - 1.0) <= 1e-9 * max(1.0, abs(area)):
            normalized = x / math.sqrt(positive_norm_sq)
    return ChartCoordinates(x=x, normalized=normalized)


def normalized_coordinates(
    chart: RadiiChart,
    polygon: PolygonChain,
    tol: Tolerances = DEFAULT_TOL,
) -> ChartCoordinates:
    """Quadratic-form coordinates x of the polygon in the chart.

    x_i = sqrt(c_i) * (signed distance of v_{i+2} from the first edge line);
    the signed sum of squares split by the perimeter signs reproduces the
    oriented area.  For polygons of area +1 with a nonempty positive block
    the sphere-times-disc normalization of x is returned as well.
    """
    offsets = _line_offsets(chart, polygon.vertices, tol)
    return _chart_coordinates(chart, polygon.vertices, offsets)


def topology_report(chart: RadiiChart) -> TopologyReport:
    """Homeomorphism type of the two components of the configuration space.

    With angle sum k * pi the negative component is S^(n-k-2) x D^(k-1) and
    the positive component is S^(k-2) x D^(n-k-1); a negative sphere
    dimension marks an empty component.
    """
    n, k = chart.n, chart.half_turns
    return TopologyReport(
        half_turns=k,
        negative_component=ComponentShape(sphere_dim=n - k - 2, disc_dim=k - 1),
        positive_component=ComponentShape(sphere_dim=k - 2, disc_dim=n - k - 1),
    )
