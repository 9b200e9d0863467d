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

import numpy as np

from .errors import ReconstructionDegenerate, SignatureMismatch, SlopeMismatch
from .geometry import (
    PolygonChain,
    SlopeSystem,
    edge_offsets,
    intersect_lines,
    left_normal,
    line_gap,
    oriented_area,
    polygon_from_lines,
    signed_perimeter,
    turning_sum,
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
    from :func:`turning_sum`.  Both critical points of the perimeter share
    this turning data, as do all cyclic relabelings of the system.
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
        vanishing are invariant under cyclic relabeling.  Computed on first
        read, from the closed forms on all n relabelings at once.
        """
        n = self.n
        # Row k holds the angles of the system relabeled to start at slope k.
        rotations = self.system.angles[(np.arange(n)[:, None] + np.arange(n)) % n]
        perimeters = _unit_perimeters(rotations)
        k = int(np.argmin(np.max(np.abs(perimeters), axis=1) / np.abs(perimeters[:, 0])))
        return _radii_chart(
            self.system.rotated(k),
            perimeters[k],
            self.angle_sum,
            self.half_turns,
            self.right_turns,
        )


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


def _triangle_angles(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x = s_{i+1} - s_1, y = s_{i+2} - s_1 and y - x along the last axis,
    y - x with one rounding."""
    first = angles[..., :1]
    return angles[..., 1:-1] - first, angles[..., 2:] - first, angles[..., 2:] - angles[..., 1:-1]


def _unit_perimeters(angles: np.ndarray) -> np.ndarray:
    """p_i by the closed form of :func:`build_chart`, along the last axis.

    Triangle i turns by x, y - x and -y, so 2 * sum tan(turn / 2) equals the
    product form of p_i; products keep the relative accuracy that sums lose.
    """
    x, y, turn = _triangle_angles(angles)
    return -2.0 * np.tan(0.5 * x) * np.tan(0.5 * turn) * np.tan(0.5 * y)


def _area_constants(angles: np.ndarray) -> np.ndarray:
    """c_i by the closed form of :func:`build_chart`, along the last axis."""
    x, y, turn = _triangle_angles(angles)
    return np.abs(np.sin(turn)) / (2.0 * np.abs(np.sin(x) * np.sin(y)))


def build_chart(system: SlopeSystem, tol: Tolerances = DEFAULT_TOL) -> RadiiChart:
    """Chart of a slope system: unit perimeters, area constants, signature.

    With x = s_{i+1} - s_1 and y = s_{i+2} - s_1 the chart constants are

        p_i = -2 tan(x/2) tan((y-x)/2) tan(y/2)
        c_i = |sin(y-x)| / (2 |sin x sin y|)

    that is, twice the oriented area of the unit-inradius triangle and its
    area over its squared apex height above e_1.  Raises ParallelLines for
    parallel lines and SignatureMismatch if the number of positive
    perimeters fails to equal k - 1.
    """
    system.require_pairwise_nonparallel(tol)
    turning = turning_sum(system, tol)
    return _radii_chart(system, _unit_perimeters(system.angles), *turning)


@functools.lru_cache(maxsize=None)
def _line_pairs(n: int, parallel: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slope pairs (i, j) that :func:`chart_stack` keeps apart as lines, and
    the least gap of each: every pair i < j by ``parallel``, as
    require_pairwise_nonparallel does, and consecutive pairs also by
    ``DEFAULT_TOL.parallel``, as the constructor does, which takes the last
    one as (n - 1, 0)."""
    first, second = np.triu_indices(n, 1)
    limits = np.where(second - first == 1, max(parallel, DEFAULT_TOL.parallel), parallel)
    return (
        np.append(first, n - 1),
        np.append(second, 0),
        np.append(limits, DEFAULT_TOL.parallel),
    )


def chart_stack(
    angles: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit perimeters, their sums and a validity flag for each row of an
    (m, n) stack of angles reduced as :class:`SlopeSystem` stores them.

    A row is ok when it passes every check that ``SlopeSystem`` and
    :func:`build_chart` make, with the same arithmetic: consecutive lines
    apart by ``DEFAULT_TOL.parallel``, all pairs by ``tol.parallel``, an
    integral angle sum k * pi with 1 <= k <= n - 1, and k - 1 positive p_i.
    On an ok row p and sum p equal the chart's bit for bit; on any other
    row they mean nothing, and the scalar path says what is wrong.  Every
    test is a positive condition, so a row that is not finite fails it.
    """
    pi = math.pi
    # Each check compares d = (a_i - a_j) mod pi and pi - d with its limit.
    first, second, limits = _line_pairs(angles.shape[1], tol.parallel)
    gaps = (angles[:, first] - angles[:, second]) % pi
    ok = (np.minimum(gaps, pi - gaps) >= limits).all(axis=1)
    # turning_sum adds (a_{i+1} - a_i) mod pi in order, as cumsum does; the
    # terms are not negative, so the ratio is its own absolute value.
    turns = np.concatenate((angles[:, 1:], angles[:, :1]), axis=1) - angles
    ratio = np.cumsum(turns % pi, axis=1)[:, -1] / pi
    k = np.rint(ratio)
    ok &= np.abs(ratio - k) <= tol.turn_integral * np.maximum(1.0, ratio)
    perimeters = _unit_perimeters(angles)
    # k - 1 positive p_i out of n - 2 also puts k in 1..n - 1.
    ok &= (perimeters > 0).sum(axis=1) == k - 1
    return perimeters, perimeters.sum(axis=1), ok


def _radii_chart(system, perimeters, angle_sum, half_turns, right_turns) -> RadiiChart:
    """Chart of the given constants, after the signature check of :func:`build_chart`."""
    positive = int(np.count_nonzero(perimeters > 0))
    if positive != half_turns - 1:
        raise SignatureMismatch(
            f"{positive} positive unit perimeters, expected {half_turns - 1}"
        )
    perimeters.setflags(write=False)
    return RadiiChart(
        system=system,
        unit_perimeters=perimeters,
        perimeter_sum=float(np.sum(perimeters)),
        angle_sum=angle_sum,
        half_turns=half_turns,
        right_turns=right_turns,
    )


def polygon_from_radii(
    chart: RadiiChart,
    radii,
    tol: Tolerances = DEFAULT_TOL,
) -> PolygonChain:
    """Polygon whose decomposition triangles have the given signed inradii.

    The translation representative is canonical: the first edge line passes
    through the origin and the center of the first decomposition circle
    projects onto the origin along that line.  Edge lines are placed
    sequentially: the circle of triangle i is tangent to e_1 and e_{i+1} on
    the matching sides, and e_{i+2} is the matching-side tangent with slope
    s_{i+2}.  A zero radius makes the three lines concurrent.
    """
    radii = np.asarray(radii, dtype=float)
    n = chart.n
    if radii.shape != (n - 2,):
        raise ValueError(f"expected {n - 2} radii, got shape {radii.shape}")
    if not np.all(np.isfinite(radii)):
        raise ValueError("radii must be finite")
    angles = chart.system.angles.tolist()
    r = radii.tolist()
    normals = [(-math.sin(a), math.cos(a)) for a in angles]
    offsets = [0.0] * n
    # First circle center: signed distance r_0 from e_1, projecting to origin.
    x, y = r[0] * normals[0][0], r[0] * normals[0][1]
    offsets[1] = normals[1][0] * x + normals[1][1] * y - r[0]
    offsets[2] = normals[2][0] * x + normals[2][1] * y - r[0]
    for i in range(1, n - 2):
        gap = math.sin(line_gap(angles[0], angles[i + 1]))
        if gap == 0.0 or 1.0 / gap > tol.condition_limit:
            raise ReconstructionDegenerate(
                f"tangent construction for triangle {i} is ill-conditioned"
            )
        # Center lies on the parallel of e_1 at offset r_i and on the parallel
        # of e_{i+1} at offset d_{i+1} + r_i.
        x, y = intersect_lines(angles[0], r[i], angles[i + 1], offsets[i + 1] + r[i], tol)
        offsets[i + 2] = normals[i + 2][0] * x + normals[i + 2][1] * y - r[i]
    polygon = polygon_from_lines(angles, offsets, tol)
    _check_chart_laws(chart, radii, polygon, tol)
    return polygon


def _check_chart_laws(chart, radii, polygon, tol):
    p = chart.unit_perimeters
    area_terms = 0.5 * p * radii**2
    perim_terms = p * radii
    area_scale = max(1.0, float(np.sum(np.abs(area_terms))))
    perim_scale = max(1.0, float(np.sum(np.abs(perim_terms))))
    area_err = abs(oriented_area(polygon) - float(np.sum(area_terms)))
    perim_err = abs(
        signed_perimeter(polygon, chart.system, tol) - float(np.sum(perim_terms))
    )
    if area_err > tol.chart_check * area_scale or perim_err > tol.chart_check * perim_scale:
        raise ReconstructionDegenerate(
            f"reconstruction violates chart laws (area error {area_err!r}, "
            f"perimeter error {perim_err!r})"
        )


def polygon_line_offsets(
    chart: RadiiChart,
    polygon: PolygonChain,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Offsets of the polygon's edge lines against the chart's slope angles.

    Raises SlopeMismatch when an edge is not parallel to its slope.
    """
    if polygon.n != chart.n:
        raise SlopeMismatch(f"polygon has {polygon.n} edges, chart expects {chart.n}")
    angles = chart.system.angles
    edge_angles = polygon.edge_angles
    for i in range(chart.n):
        if line_gap(edge_angles[i], angles[i]) > tol.parallel:
            raise SlopeMismatch(f"edge {i} does not match slope {i}")
    return edge_offsets(polygon, angles)


def radii_of_polygon(
    chart: RadiiChart,
    polygon: PolygonChain,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Signed inradii of the polygon's decomposition triangles."""
    offsets = polygon_line_offsets(chart, polygon, tol)
    # Row i indexes the lines (0, i + 1, i + 2) of decomposition triangle i.
    rest = np.arange(1, chart.n - 1)[:, None]
    triples = np.hstack((np.zeros_like(rest), rest, rest + 1))
    _, radii = tritangent_circle(chart.system.angles[triples], offsets[triples])
    return radii


def decomposition_polygons(
    chart: RadiiChart,
    polygon: PolygonChain,
    tol: Tolerances = DEFAULT_TOL,
) -> list[PolygonChain]:
    """Triangles Q(e_1, e_{i+1}, e_{i+2}) built from the polygon's edge lines."""
    offsets = polygon_line_offsets(chart, polygon, tol)
    angles = chart.system.angles
    out = []
    for i in range(chart.n - 2):
        idx = (0, i + 1, i + 2)
        out.append(
            polygon_from_lines([angles[j] for j in idx], [offsets[j] for j in idx], tol)
        )
    return out


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
    offsets = polygon_line_offsets(chart, polygon, tol)
    first_normal = left_normal(chart.system.angles[0])
    x = np.empty(chart.n - 2)
    for i in range(chart.n - 2):
        signed_dist = float(first_normal @ polygon.vertices[i + 2]) - offsets[0]
        x[i] = math.sqrt(chart.area_constants[i]) * signed_dist
    normalized = None
    mask = chart.positive_mask
    if np.any(mask):
        positive_norm_sq = float(np.sum(x[mask] ** 2))
        area = oriented_area(polygon)
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
