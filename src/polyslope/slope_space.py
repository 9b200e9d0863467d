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

from .errors import ParallelLines, ReconstructionDegenerate, SlopeMismatch
from .geometry import (
    EPS,
    NOT_FINITE,
    PolygonChain,
    SlopeSystem,
    _cycled,
    area_form,
    closure_basis,
    edge_offsets,
    edges_against_slopes,
    left_normal,
    line_gap,
    line_vertices,
    oriented_areas,
    polygon_from_lines,
    polygon_measures,
    signed_perimeter,
    turn_tangents,
    turning_rule,
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
    ``perimeter_sum`` is sum(p_i); ``half_turns`` (the integer k of the
    angle sum k * pi) and ``right_turns`` come from :func:`turning_rule`;
    every chart keeps the rules of :func:`chart_stack`.  Both critical
    points and all cyclic relabelings share this turning data.
    ``tol`` holds the tolerances the chart was decided at, which
    :func:`build_chart` alone sets; the functions that read a chart decide
    parallel lines and the exceptional locus by it.
    """

    system: SlopeSystem
    unit_perimeters: np.ndarray
    perimeter_sum: float
    half_turns: int
    right_turns: int
    tol: Tolerances

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def angle_sum(self) -> float:
        """The sum k * pi of the line turns (s_{i+1} - s_i) mod pi."""
        return self.half_turns * math.pi

    @property
    def left_turns(self) -> int:
        return self.n - self.right_turns

    @property
    def winding(self) -> int:
        """Turning number of every polygon of the system, w = (k - RT) / 2:
        wrapped to (-pi, pi), the turns of :func:`turning_rule` add 2pi for
        each f_i = -2 and -2pi for each f_i = 1 to sum tau_i = 0, and k - RT
        is twice that count."""
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
    def closure_space(self) -> np.ndarray:
        """Orthonormal basis of ker U, the edge lengths l with sum l_i u_i = 0,
        on first read: ``closure_basis`` of the directions from slope 1."""
        shifted = self.system.angles - self.system.angles[0]
        basis = closure_basis((np.cos(shifted), np.sin(shifted)))
        basis.setflags(write=False)
        return basis

    @functools.cached_property
    def area_form(self) -> np.ndarray:
        """Q of :func:`~polyslope.geometry.area_form` at the slopes, on first read."""
        form = area_form(self.system.angles)
        form.setflags(write=False)
        return form


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

    Cramer's rule solves the system.  With the half turns h_j = (a_{j+1} -
    a_j) / 2 its determinant is the product 4 sin h_1 sin h_2 sin h_3, zero
    only for two codirected lines (ReconstructionDegenerate).  Offset d_j
    enters through the turn of lines j + 1 and j + 2, with the minors
    sin 2h_{j+1} for rho and u_{j+2} - u_{j+1} = 2 sin h_{j+1} n(a_{j+1} +
    h_{j+1}) for the center: small sines stay factors, as in p_i.

    ``angles`` and ``offsets`` may be stacked with shape (..., 3); the result
    then has shapes (..., 2) and (...), one circle per triple.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1:] != (3,):
        raise ValueError(f"expected the angles of three lines, got shape {angles.shape}")
    # -h, so that the center's minors need no negation.
    half = 0.5 * (angles - _cycled(angles, 1, -1))
    sines = np.sin(half)
    det = sines[..., 0] * sines[..., 1] * sines[..., 2]
    if np.count_nonzero(det) < det.size:
        raise ReconstructionDegenerate("no one-side tritangent circle found")
    # d_{j-1} sin h_j / (2 prod sin h), the weight of turn j.
    weights = 0.5 * _cycled(np.asarray(offsets, dtype=float), -1, -1) * sines / det[..., None]
    middle = half - angles
    x, y, rho = weights * np.sin(middle), weights * np.cos(middle), weights * np.cos(half)
    center = np.empty(angles.shape[:-1] + (2,))
    center[..., 0] = x[..., 0] + x[..., 1] + x[..., 2]
    center[..., 1] = y[..., 0] + y[..., 1] + y[..., 2]
    rho = rho[..., 0] + rho[..., 1] + rho[..., 2]
    return (center, float(rho)) if angles.ndim == 1 else (center, rho)


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
    turns = turn_tangents(angles[..., 1:])[..., :-1]
    return -2.0 * half[..., :-1] * turns * half[..., 1:]


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
    perimeters, total, k, right_turns = stack[:4]
    perimeters.setflags(write=False)
    return RadiiChart(system, perimeters, float(total), int(k), int(right_turns), tol)


# The chart rules, in the order they are checked.
LINES, FINITE = range(2)


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


class ChartStack(NamedTuple):
    """The chart rules on each row of an (..., n) angle stack: the chart
    data of each row, its chart's bit for bit where it keeps every rule, and
    ``broken``, the mask of the rows that break each rule, in rule order."""

    unit_perimeters: np.ndarray
    perimeter_sums: np.ndarray
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
        the message only here.  A NaN or infinite angle raises ValueError."""
        rule = next((rule for rule in rules or range(2) if self.broken[rule][row]), None)
        angles = self.angles[row]
        if rule == LINES:
            first, second, _ = _slope_pairs(len(angles), self.tol.parallel)
            at = int(np.argmax(_parallel_pairs(angles, self.tol)))
            pair = f"slopes {first[at]} and {second[at]} are parallel as lines"
            raise ParallelLines(f"consecutive {pair}" if at < len(angles) else pair)
        if rule == FINITE:
            raise ValueError(NOT_FINITE)


def chart_stack(angles: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> ChartStack:
    """The one definition of a chart, on each row of an (..., n) stack of
    angles reduced as :class:`SlopeSystem` stores them: lines apart (the
    consecutive ones by ``DEFAULT_TOL.parallel``, all by ``tol.parallel``)
    and finite angles.  Every such row has the signature k - 1 positive p_i
    for the k of :func:`turning_rule`, a property the tests hold it to."""
    k, right_turns = turning_rule(angles)
    perimeters = _unit_perimeters(angles)
    broken = _parallel_pairs(angles, tol).any(axis=-1), ~np.isfinite(angles).all(axis=-1)
    sums = perimeters.sum(axis=-1)
    return ChartStack(perimeters, sums, k, right_turns, broken, angles, tol)


@functools.lru_cache(maxsize=None)
def _owners(n: int) -> np.ndarray:
    """The read-only index max(k - 2, 0) of the triangle that places line k."""
    owner = np.maximum(np.arange(-2, n - 2), 0)
    owner.setflags(write=False)
    return owner


def _radii_offsets(angles: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Edge-line offsets, (K, n), of :func:`polygon_from_radii` for a (K, n - 2)
    stack of radii; linear, so a row may also be a direction in radii space."""
    # Circle i sits on e_1 and e_{i+1}, which the chart's lines rule holds apart.
    theta = angles - angles[0]
    half = np.tan(0.5 * theta)
    # Centers step by (r_{i-1} - r_i) T_{i+1} from c_0 = 0.
    steps = np.empty_like(rows)
    steps[:, 0] = 0.0
    np.subtract(rows[:, 1:], rows[:, :-1], out=steps[:, 1:])
    centers = (steps * -half[1:-1]).cumsum(axis=1)
    # t_k comes from triangle max(k - 2, 0); sin(theta_0) = 0 keeps e_1 at 0.
    owner = _owners(angles.shape[-1])
    return (centers[:, owner] + rows[:, owner] * half) * np.sin(-theta)


def _reconstruction(chart: RadiiChart, radii) -> tuple[np.ndarray, ...]:
    """:func:`polygon_from_radii` of one row or a (K, n - 2) stack of radii as
    the (K, n, 2) vertex stack, with what its check of the chart laws built:
    the (K,) oriented areas, signed perimeters and diameters that one edge
    pass of :func:`polygon_measures` took (holding every edge to its slope),
    and the (2, K) law sums (1/2 sum p r**2, sum p r) and sums of |terms|."""
    radii = np.asarray(radii, dtype=float)
    n = chart.n
    if radii.shape[-1:] != (n - 2,) or radii.ndim > 2:
        raise ValueError(f"expected {n - 2} radii, got shape {radii.shape}")
    if not np.isfinite(radii).all():
        raise ValueError("radii must be finite")
    angles, tol = chart.system.angles, chart.tol
    rows = radii.reshape(-1, n - 2)
    vertices = line_vertices(angles, _radii_offsets(angles, rows), tol)
    areas, perimeters, sizes = polygon_measures(vertices, angles, tol)
    # The chart laws hold on every row, to their roundoff of 2048 eps sum|terms|.
    terms = np.array((0.5 * chart.unit_perimeters * rows**2, chart.unit_perimeters * rows))
    sums, scales = terms.sum(axis=-1), np.abs(terms).sum(axis=-1)
    errors = np.abs(np.array((areas, perimeters)) - sums)
    violated = (errors > 2048.0 * EPS * scales).any(axis=0)
    if violated.any():
        area_err, perim_err = errors[:, np.argmax(violated)].tolist()
        raise ReconstructionDegenerate(
            f"reconstruction violates chart laws (area error {area_err!r}, "
            f"perimeter error {perim_err!r})"
        )
    return vertices, areas, perimeters, sizes, sums, scales


def polygon_from_radii(chart: RadiiChart, radii) -> PolygonChain | np.ndarray:
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
    The kernel :func:`_reconstruction` also returns the oriented areas,
    signed perimeters and diameters that its check of the chart laws
    measured in one edge pass (:func:`polygon_measures`), and the law sums
    it held them to; the chart-identity sweep reads them from there.
    """
    vertices = _reconstruction(chart, radii)[0]
    return PolygonChain(vertices[0]) if np.ndim(radii) == 1 else vertices


def _line_offsets(chart: RadiiChart, vertices: np.ndarray) -> np.ndarray:
    """Offsets of the edge lines of an (n, 2) vertex list against the chart's
    slopes, its edges read as :class:`PolygonChain` reads them; SlopeMismatch
    for a wrong edge count or for the first edge off its slope."""
    if len(vertices) != chart.n:
        raise SlopeMismatch(f"polygon has {len(vertices)} edges, chart expects {chart.n}")
    angles = chart.system.angles
    mismatched = edges_against_slopes(vertices, angles, chart.tol)
    if mismatched.any():
        i = int(np.argmax(mismatched))
        raise SlopeMismatch(f"edge {i} does not match slope {i}")
    return edge_offsets(vertices, angles)


@functools.lru_cache(maxsize=None)
def decomposition_lines(n: int) -> np.ndarray:
    """The read-only (n - 2, 3) table whose row i indexes the lines
    (0, i + 1, i + 2) of decomposition triangle i, shared by every caller."""
    lines = np.arange(1, n - 1)[:, None] * [0, 1, 1] + [0, 0, 1]
    lines.setflags(write=False)
    return lines


def radii_of_polygon(chart: RadiiChart, polygon: PolygonChain) -> np.ndarray:
    """Signed inradii of the polygon's decomposition triangles."""
    lines = decomposition_lines(chart.n)
    offsets = _line_offsets(chart, polygon.vertices)[lines]
    return tritangent_circle(chart.system.angles[lines], offsets)[1]


def decomposition_polygons(chart: RadiiChart, polygon: PolygonChain) -> np.ndarray:
    """Triangles Q(e_1, e_{i+1}, e_{i+2}) built from the polygon's edge lines,
    as one (n - 2, 3, 2) stack of vertex lists; triangle i of a zero radius
    r_i is, to roundoff, the point of its three concurrent lines."""
    lines = decomposition_lines(chart.n)
    offsets = _line_offsets(chart, polygon.vertices)[lines]
    return line_vertices(chart.system.angles[lines], offsets, chart.tol)


def _chart_coordinates(chart: RadiiChart, vertices: np.ndarray, offset: float) -> np.ndarray:
    """The coordinates x of :func:`normalized_coordinates` of an (n, 2)
    vertex list whose first edge line has the given offset."""
    heights = vertices[2:] @ left_normal(chart.system.angles[0]) - offset
    return np.sqrt(chart.area_constants) * heights


def normalized_coordinates(chart: RadiiChart, polygon: PolygonChain) -> ChartCoordinates:
    """Quadratic-form coordinates x of the polygon in the chart.

    x_i = sqrt(c_i) * (signed distance of v_{i+2} from the first edge line);
    the signed sum of squares split by the perimeter signs reproduces the
    oriented area.  For polygons of area +1 with a nonempty positive block it
    also returns x over the norm of that block, on the sphere-times-disc.
    """
    vertices = polygon.vertices
    area = float(oriented_areas(vertices))
    x = _chart_coordinates(chart, vertices, _line_offsets(chart, vertices)[0])
    normalized = None
    mask = chart.positive_mask
    if mask.any():
        positive_norm_sq = float((x[mask] ** 2).sum())
        if positive_norm_sq > 0.0 and abs(area - 1.0) <= 1e-9 * max(1.0, abs(area)):
            normalized = x / math.sqrt(positive_norm_sq)
    return ChartCoordinates(x=x, normalized=normalized)


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
