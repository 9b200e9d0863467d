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

from .errors import ParallelLines, ReconstructionDegenerate, SignatureMismatch, SlopeMismatch
from .geometry import (
    DirectedSlope,
    PolygonChain,
    SlopeSystem,
    _intersection,
    edge_offsets,
    left_normals,
    line_gap,
    oriented_area,
    polygon_from_lines,
    signed_perimeter,
    turning_sum,
)
from .tolerances import DEFAULT_TOL, Tolerances


@dataclass(frozen=True, eq=False)
class RadiiChart:
    """Chart data of a slope system.

    ``unit_perimeters[i]`` is the signed perimeter p_i of the decomposition
    triangle with slopes (s_1, s_{i+1}, s_{i+2}) scaled to signed inradius
    +1; ``area_constants[i]`` is the positive constant c_i relating the
    triangle's area to the squared distance of its apex from the first edge
    line (closed forms in :func:`build_chart`).  ``perimeter_sum`` is
    sum(p_i) and ``half_turns`` the integer k with angle sum k * pi.
    """

    system: SlopeSystem
    unit_perimeters: np.ndarray
    area_constants: np.ndarray
    perimeter_sum: float
    half_turns: int

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def positive_mask(self) -> np.ndarray:
        return self.unit_perimeters > 0

    @functools.cached_property
    def well_conditioned(self) -> "RadiiChart":
        """This chart in the cyclic relabeling that minimizes max|p| / |p_1|.

        The first decomposition triangle owns the implicit coordinate of the
        constrained chart, so its unit perimeter divides every derivative of
        the implicit function and finite-difference errors grow with
        max|p| / |p_1|.  Critical points, their indices and gradient
        vanishing are invariant under cyclic relabeling.  Computed on first
        read, from the closed forms on all n relabelings at once.
        """
        n = self.n
        # Row k holds the angles of the system relabeled to start at slope k.
        rotations = self.system.angles[(np.arange(n)[:, None] + np.arange(n)) % n]
        perimeters, constants = _chart_constants(rotations)
        k = int(np.argmin(np.max(np.abs(perimeters), axis=1) / np.abs(perimeters[:, 0])))
        return _radii_chart(self.system.rotated(k), perimeters[k], constants[k], self.half_turns)


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


def tritangent_circle(
    angles: tuple[float, float, float],
    offsets: tuple[float, float, float],
    tol: Tolerances | None = None,
) -> tuple[np.ndarray, float]:
    """Center and signed radius of the one-side tritangent circle.

    Of the four circles tangent to all three directed lines, exactly one lies
    entirely to the left of every line or entirely to the right of every
    line; the four candidates are solved and tested exhaustively.  The signed
    radius is positive in the all-left case and negative in the all-right
    case; three concurrent lines give radius zero.
    """
    tol = DEFAULT_TOL if tol is None else tol
    normals = left_normals(angles)
    rhs = np.asarray(offsets, dtype=float)
    scale = 1.0 + float(np.max(np.abs(rhs)))
    candidates = []
    for pattern in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)):
        matrix = np.column_stack([normals, -np.asarray(pattern, dtype=float)])
        try:
            center_x, center_y, rho = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError:
            continue
        center = np.array([center_x, center_y])
        sides = normals @ center - rhs
        band = 1e-12 * (scale + abs(rho))
        if np.all(sides >= -band) or np.all(sides <= band):
            signed = float(pattern[0] * rho)
            candidates.append((center, signed))
    if not candidates:
        raise ReconstructionDegenerate("no one-side tritangent circle found")
    if len(candidates) > 1:
        # Multiple qualifiers only at near-concurrency, where all candidates
        # collapse to the same point with radius ~ 0.
        radii = [abs(r) for _, r in candidates]
        if max(radii) > 1e-9 * scale:
            raise ReconstructionDegenerate("tritangent circle is not unique")
    return candidates[0]


def unit_triangle(
    a: DirectedSlope,
    b: DirectedSlope,
    c: DirectedSlope,
    tol: Tolerances | None = None,
) -> tuple[PolygonChain, float]:
    """Triangle with edges codirected with (a, b, c) and signed inradius +1.

    The inscribed circle is centered at the origin, so each edge line is the
    left-of-circle tangent with normal offset -1.  Returns the triangle and
    its signed perimeter: the geometric reference for :func:`build_chart`.
    """
    tol = DEFAULT_TOL if tol is None else tol
    angles = (a.angle, b.angle, c.angle)
    for i in range(3):
        j = (i + 1) % 3
        if line_gap(angles[i], angles[j]) < tol.parallel:
            raise ParallelLines(f"slopes {i} and {j} are parallel as lines")
    triangle = polygon_from_lines(angles, (-1.0, -1.0, -1.0), tol)
    return triangle, signed_perimeter(triangle, (a, b, c), tol)


def _chart_constants(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p_i and c_i by the closed forms of :func:`build_chart`, along the last axis.

    Triangle i turns by x, y - x and -y, so 2 * sum tan(turn / 2) equals the
    product form of p_i; products keep the relative accuracy that sums lose.
    """
    x = angles[..., 1:-1] - angles[..., :1]
    y = angles[..., 2:] - angles[..., :1]
    turn = angles[..., 2:] - angles[..., 1:-1]  # y - x with one rounding
    perimeters = -2.0 * np.tan(0.5 * x) * np.tan(0.5 * turn) * np.tan(0.5 * y)
    constants = np.abs(np.sin(turn)) / (2.0 * np.abs(np.sin(x) * np.sin(y)))
    return perimeters, constants


def build_chart(system: SlopeSystem, tol: Tolerances | None = None) -> RadiiChart:
    """Chart of a slope system: unit perimeters, area constants, signature.

    With x = s_{i+1} - s_1 and y = s_{i+2} - s_1 the chart constants are

        p_i = -2 tan(x/2) tan((y-x)/2) tan(y/2)
        c_i = |sin(y-x)| / (2 |sin x sin y|)

    that is, twice the oriented area of the unit-inradius triangle and its
    area over its squared apex height above e_1.  Raises ParallelLines for
    parallel lines and SignatureMismatch if the number of positive
    perimeters fails to equal k - 1.
    """
    tol = DEFAULT_TOL if tol is None else tol
    system.require_pairwise_nonparallel(tol)
    _, half_turns = turning_sum(system, tol)
    return _radii_chart(system, *_chart_constants(system.angles), half_turns)


def _radii_chart(system, perimeters, constants, half_turns) -> RadiiChart:
    """Chart of the given constants, after the signature check of :func:`build_chart`."""
    positive = int(np.count_nonzero(perimeters > 0))
    if positive != half_turns - 1:
        raise SignatureMismatch(
            f"{positive} positive unit perimeters, expected {half_turns - 1}"
        )
    perimeters.setflags(write=False)
    constants.setflags(write=False)
    return RadiiChart(
        system=system,
        unit_perimeters=perimeters,
        area_constants=constants,
        perimeter_sum=float(np.sum(perimeters)),
        half_turns=half_turns,
    )


def polygon_from_radii(
    chart: RadiiChart,
    radii,
    tol: Tolerances | None = None,
) -> PolygonChain:
    """Polygon whose decomposition triangles have the given signed inradii.

    The translation representative is canonical: the first edge line passes
    through the origin and the center of the first decomposition circle
    projects onto the origin along that line.  Edge lines are placed
    sequentially: the circle of triangle i is tangent to e_1 and e_{i+1} on
    the matching sides, and e_{i+2} is the matching-side tangent with slope
    s_{i+2}.  A zero radius makes the three lines concurrent.
    """
    tol = DEFAULT_TOL if tol is None else tol
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
        x, y = _intersection(angles[0], r[i], angles[i + 1], offsets[i + 1] + r[i], tol)
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
    tol: Tolerances | None = None,
) -> np.ndarray:
    """Offsets of the polygon's edge lines against the chart's slope angles.

    Raises SlopeMismatch when an edge is not parallel to its slope.
    """
    tol = DEFAULT_TOL if tol is None else tol
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
    tol: Tolerances | None = None,
) -> np.ndarray:
    """Signed inradii of the polygon's decomposition triangles."""
    tol = DEFAULT_TOL if tol is None else tol
    offsets = polygon_line_offsets(chart, polygon, tol)
    angles = chart.system.angles
    radii = np.empty(chart.n - 2)
    for i in range(chart.n - 2):
        _, radii[i] = tritangent_circle(
            (angles[0], angles[i + 1], angles[i + 2]),
            (offsets[0], offsets[i + 1], offsets[i + 2]),
            tol,
        )
    return radii


def decomposition_polygons(
    chart: RadiiChart,
    polygon: PolygonChain,
    tol: Tolerances | None = None,
) -> list[PolygonChain]:
    """Triangles Q(e_1, e_{i+1}, e_{i+2}) built from the polygon's edge lines."""
    tol = DEFAULT_TOL if tol is None else tol
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
    tol: Tolerances | None = None,
) -> ChartCoordinates:
    """Quadratic-form coordinates x of the polygon in the chart.

    x_i = sqrt(c_i) * (signed distance of v_{i+2} from the first edge line);
    the signed sum of squares split by the perimeter signs reproduces the
    oriented area.  For polygons of area +1 with a nonempty positive block
    the sphere-times-disc normalization of x is returned as well.
    """
    tol = DEFAULT_TOL if tol is None else tol
    offsets = polygon_line_offsets(chart, polygon, tol)
    first_normal = chart.system[0].normal
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


def topology_report(system: SlopeSystem, tol: Tolerances | None = None) -> TopologyReport:
    """Homeomorphism type of the two components of the configuration space.

    With angle sum k * pi the negative component is S^(n-k-2) x D^(k-1) and
    the positive component is S^(k-2) x D^(n-k-1); a negative sphere
    dimension marks an empty component.
    """
    tol = DEFAULT_TOL if tol is None else tol
    _, k = turning_sum(system, tol)
    n = system.n
    return TopologyReport(
        half_turns=k,
        negative_component=ComponentShape(sphere_dim=n - k - 2, disc_dim=k - 1),
        positive_component=ComponentShape(sphere_dim=k - 2, disc_dim=n - k - 1),
    )
