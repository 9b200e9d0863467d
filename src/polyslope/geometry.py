"""Planar primitives: directed slopes, polygon chains, and the signed
area / perimeter / winding / turning computations everything else builds on.

Conventions used throughout the library:

* Angles are radians internally; degrees appear only at I/O boundaries.
* A directed line at angle ``theta`` has unit direction
  ``u = (cos theta, sin theta)`` and left normal ``n = (-sin theta, cos theta)``.
  The line with offset ``d`` is ``{q : n . q = d}`` and points with
  ``n . q > d`` lie on its left.
* A polygon assembled from directed lines ``e_1, ..., e_n`` takes vertices
  ``v_i = e_{i-1} ^ e_i`` cyclically, so edge ``i`` runs from ``v_i`` to
  ``v_{i+1}`` along ``e_i``; edge ``i`` is therefore parallel to slope ``i``.

All values are immutable after construction and all functions are pure, so
everything here is safe to share across threads.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CoincidentVertices,
    NonIntegralTurn,
    ParallelLines,
    PointOnBoundary,
    SlopeMismatch,
)
from .tolerances import DEFAULT_TOL, Tolerances

TWO_PI = 2.0 * math.pi


def direction_vector(angle: float) -> np.ndarray:
    """Unit vector at the given angle."""
    return np.array([math.cos(angle), math.sin(angle)])


def left_normal(angle: float) -> np.ndarray:
    """Unit normal pointing to the left of the direction at ``angle``."""
    return np.array([-math.sin(angle), math.cos(angle)])


def left_normals(angles) -> np.ndarray:
    """Left unit normals of the directions at ``angles``, one row per angle."""
    angles = np.asarray(angles, dtype=float)
    return np.column_stack((-np.sin(angles), np.cos(angles)))


def _successors(rows: np.ndarray) -> np.ndarray:
    """Rows shifted cyclically by one: row i holds rows[i + 1]."""
    return np.concatenate((rows[1:], rows[:1]))


def line_gap(a: float, b: float) -> float:
    """Angular distance between two undirected lines (angles taken mod pi)."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


def intersect_lines(
    angle_a: float,
    offset_a: float,
    angle_b: float,
    offset_b: float,
    tol: Tolerances | None = None,
) -> np.ndarray:
    """Intersection point of two directed lines given as (angle, offset).

    Raises ParallelLines when the lines are parallel within tolerance.
    """
    return np.array(_intersection(angle_a, offset_a, angle_b, offset_b, tol))


def _intersection(angle_a, offset_a, angle_b, offset_b, tol=None) -> tuple[float, float]:
    """:func:`intersect_lines` as a pair of Python floats."""
    tol = DEFAULT_TOL if tol is None else tol
    det = math.sin(angle_b - angle_a)
    if abs(det) < math.sin(min(tol.parallel, 0.5 * math.pi)):
        raise ParallelLines(
            f"lines at angles {angle_a!r} and {angle_b!r} are parallel within tolerance"
        )
    ca, sa = math.cos(angle_a), math.sin(angle_a)
    cb, sb = math.cos(angle_b), math.sin(angle_b)
    x = (cb * offset_a - ca * offset_b) / det
    y = (sb * offset_a - sa * offset_b) / det
    return x, y


@dataclass(frozen=True)
class DirectedSlope:
    """Direction of an oriented line through the origin, reduced to [0, 2pi)."""

    angle: float

    def __post_init__(self):
        reduced = float(self.angle) % TWO_PI
        object.__setattr__(self, "angle", reduced)

    @classmethod
    def from_degrees(cls, degrees: float) -> "DirectedSlope":
        return cls(math.radians(degrees))

    @property
    def degrees(self) -> float:
        return math.degrees(self.angle)

    @property
    def direction(self) -> np.ndarray:
        return direction_vector(self.angle)

    @property
    def normal(self) -> np.ndarray:
        return left_normal(self.angle)

    def reversed(self) -> "DirectedSlope":
        return DirectedSlope(self.angle + math.pi)


@dataclass(frozen=True)
class SlopeSystem:
    """Ordered tuple of directed slopes.

    Construction requires n >= 3 and consecutive slopes non-parallel as lines
    (this is what the turning quantities need).  Operations that build the
    configuration space additionally require pairwise non-parallelism; see
    :meth:`require_pairwise_nonparallel`.
    """

    slopes: tuple[DirectedSlope, ...]

    def __post_init__(self):
        slopes = tuple(self.slopes)
        object.__setattr__(self, "slopes", slopes)
        if len(slopes) < 3:
            raise ValueError("a slope system needs at least three slopes")
        for i, s in enumerate(slopes):
            t = slopes[(i + 1) % len(slopes)]
            if line_gap(s.angle, t.angle) < DEFAULT_TOL.parallel:
                raise ParallelLines(
                    f"consecutive slopes {i} and {(i + 1) % len(slopes)} are parallel as lines"
                )

    @classmethod
    def from_angles(cls, angles: Iterable[float]) -> "SlopeSystem":
        return cls(tuple(DirectedSlope(a) for a in angles))

    @classmethod
    def from_degrees(cls, degrees: Iterable[float]) -> "SlopeSystem":
        return cls(tuple(DirectedSlope.from_degrees(d) for d in degrees))

    def __len__(self) -> int:
        return len(self.slopes)

    def __iter__(self):
        return iter(self.slopes)

    def __getitem__(self, i):
        return self.slopes[i]

    @property
    def n(self) -> int:
        return len(self.slopes)

    @property
    def angles(self) -> np.ndarray:
        return np.array([s.angle for s in self.slopes])

    def rotated(self, shift: int) -> "SlopeSystem":
        """Cyclically relabelled system starting at index ``shift``."""
        k = shift % self.n
        return SlopeSystem(self.slopes[k:] + self.slopes[:k])

    def require_pairwise_nonparallel(self, tol: Tolerances | None = None) -> None:
        tol = DEFAULT_TOL if tol is None else tol
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if line_gap(self.slopes[i].angle, self.slopes[j].angle) < tol.parallel:
                    raise ParallelLines(f"slopes {i} and {j} are parallel as lines")


@dataclass(frozen=True, eq=False)
class PolygonChain:
    """Oriented closed broken line given by its vertex list.

    The vertex list is cyclic; consecutive vertices must be distinct.
    Self-intersection and zero total area are allowed.
    """

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if len(verts) < 3:
            raise ValueError("a polygon needs at least three vertices")
        verts = verts.copy()
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        gaps = self.edge_lengths
        limit = DEFAULT_TOL.coincident * self.diameter
        if np.any(gaps <= limit):
            bad = int(np.argmin(gaps))
            raise CoincidentVertices(f"vertices {bad} and {(bad + 1) % len(verts)} coincide")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def diameter(self) -> float:
        """Diagonal of the bounding box, used as the polygon scale."""
        spread = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.hypot(*spread))

    @property
    def edge_vectors(self) -> np.ndarray:
        return _successors(self.vertices) - self.vertices

    @property
    def edge_lengths(self) -> np.ndarray:
        e = self.edge_vectors
        return np.hypot(e[:, 0], e[:, 1])

    @property
    def edge_angles(self) -> np.ndarray:
        e = self.edge_vectors
        return np.arctan2(e[:, 1], e[:, 0]) % TWO_PI

    def translated(self, shift) -> "PolygonChain":
        return PolygonChain(self.vertices + np.asarray(shift, dtype=float))

    def scaled(self, factor: float) -> "PolygonChain":
        return PolygonChain(self.vertices * float(factor))

    def reversed_orientation(self) -> "PolygonChain":
        return PolygonChain(self.vertices[::-1])


def polygon_from_lines(
    angles: Sequence[float],
    offsets: Sequence[float],
    tol: Tolerances | None = None,
) -> PolygonChain:
    """Polygon whose edge ``i`` lies on the directed line (angles[i], offsets[i]).

    Vertices follow the convention ``v_i = e_{i-1} ^ e_i``.
    """
    n = len(angles)
    if len(offsets) != n:
        raise ValueError("angles and offsets must have equal length")
    verts = [
        intersect_lines(angles[i - 1], offsets[i - 1], angles[i], offsets[i], tol)
        for i in range(n)
    ]
    return PolygonChain(np.array(verts))


def tangential_polygon(angles: Sequence[float], center, inradius: float) -> PolygonChain:
    """Polygon of the directed lines at ``angles`` tangent to the circle about
    ``center`` of signed radius r (r > 0: the circle lies left of every line).
    With tau_i = (phi_{i+1} - phi_i) mod 2pi, vertex i + 1 (edges i, i + 1)
    is center - (r / cos(tau_i / 2)) n(phi_i + tau_i / 2), n the left normal."""
    angles = np.asarray(angles, dtype=float)
    half = 0.5 * ((_successors(angles) - angles) % TWO_PI)
    corners = center - (inradius / np.cos(half))[:, None] * left_normals(angles + half)
    return PolygonChain(np.concatenate((corners[-1:], corners[:-1])))


def edge_offsets(polygon: PolygonChain, angles: Sequence[float]) -> np.ndarray:
    """Line offsets of the polygon edges measured against the given angles."""
    return np.einsum("ij,ij->i", left_normals(angles), polygon.vertices)


def oriented_area(polygon: PolygonChain) -> float:
    """Shoelace area; the sign encodes orientation.

    Equal to the integral of the winding number over the plane, so
    self-intersecting polygons are handled consistently.
    """
    v = polygon.vertices
    w = _successors(v)
    return 0.5 * float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))


def _edge_distances(polygon: PolygonChain, point: np.ndarray) -> np.ndarray:
    """Distance from ``point`` to each closed edge segment of the polygon."""
    starts = polygon.vertices
    edges = polygon.edge_vectors
    to_point = point - starts
    # PolygonChain rejects coincident vertices, so no edge has length zero.
    along = np.einsum("ij,ij->i", to_point, edges) / np.einsum("ij,ij->i", edges, edges)
    nearest = starts + np.clip(along, 0.0, 1.0)[:, None] * edges
    return np.linalg.norm(point - nearest, axis=1)


def winding_number(
    polygon: PolygonChain,
    point,
    tol: Tolerances | None = None,
) -> int:
    """Winding number of the polygon around ``point`` by summed signed angles.

    Correct for self-intersecting polygons.  Raises PointOnBoundary when the
    point lies on an edge within tolerance, and NonIntegralTurn if the angle
    sum fails to round cleanly to an integer multiple of 2*pi.
    """
    tol = DEFAULT_TOL if tol is None else tol
    point = np.asarray(point, dtype=float)
    guard = tol.on_boundary * polygon.diameter
    on_edge = _edge_distances(polygon, point) <= guard
    if on_edge.any():
        raise PointOnBoundary(f"point {point.tolist()} lies on edge {int(np.argmax(on_edge))}")
    rel = polygon.vertices - point
    nxt = _successors(rel)
    cross = rel[:, 0] * nxt[:, 1] - rel[:, 1] * nxt[:, 0]
    dot = np.einsum("ij,ij->i", rel, nxt)
    total = float(np.sum(np.arctan2(cross, dot)))
    turns = total / TWO_PI
    nearest = round(turns)
    if abs(turns - nearest) >= tol.winding_residual:
        raise NonIntegralTurn(f"winding residual {turns - nearest!r} exceeds tolerance")
    return int(nearest)


def line_angle(
    r: DirectedSlope,
    s: DirectedSlope,
    tol: Tolerances | None = None,
) -> float:
    """Angle in (0, pi) of the counterclockwise rotation taking line r to line s."""
    tol = DEFAULT_TOL if tol is None else tol
    if line_gap(r.angle, s.angle) < tol.parallel:
        raise ParallelLines("line angle undefined for parallel lines")
    return (s.angle - r.angle) % math.pi


def turning_sum(
    system: SlopeSystem,
    tol: Tolerances | None = None,
) -> tuple[float, int]:
    """Cyclic sum of consecutive line angles and its multiple of pi.

    Returns ``(t, k)`` where ``t = k * pi``; k is an integer between 1 and
    n - 1 for every valid system.
    """
    tol = DEFAULT_TOL if tol is None else tol
    slopes = system.slopes
    t = sum(
        line_angle(slopes[i], slopes[(i + 1) % len(slopes)], tol)
        for i in range(len(slopes))
    )
    ratio = t / math.pi
    k = round(ratio)
    if abs(ratio - k) > tol.turn_integral * max(1.0, abs(ratio)):
        raise NonIntegralTurn(f"angle sum {t!r} is not an integral multiple of pi")
    if not 1 <= k <= system.n - 1:
        raise NonIntegralTurn(f"turning number {k} outside {{1, ..., n - 1}}")
    return float(t), int(k)


def turn_counts(system: SlopeSystem) -> tuple[int, int]:
    """Numbers of clockwise and counterclockwise sub-pi turns.

    A consecutive pair turns right when the second direction is a clockwise
    rotation of the first by less than pi.  RT + LT = n always.
    """
    right = 0
    left = 0
    slopes = system.slopes
    for i in range(len(slopes)):
        step = (slopes[(i + 1) % len(slopes)].angle - slopes[i].angle) % TWO_PI
        if step < math.pi:
            left += 1
        else:
            right += 1
    return right, left


def signed_perimeter(
    polygon: PolygonChain,
    slopes: SlopeSystem | Sequence[DirectedSlope],
    tol: Tolerances | None = None,
) -> float:
    """Edge lengths summed with signs against the declared slope directions.

    Edge ``i`` contributes +length when its traversal is codirected with
    ``slopes[i]`` and -length otherwise.  Raises SlopeMismatch when an edge is
    not parallel to its slope within tolerance.
    """
    tol = DEFAULT_TOL if tol is None else tol
    slopes = tuple(slopes)
    if len(slopes) != polygon.n:
        raise SlopeMismatch(
            f"polygon has {polygon.n} edges but {len(slopes)} slopes were given"
        )
    edges = polygon.edge_vectors
    angles = polygon.edge_angles
    slope_angles = np.array([slope.angle for slope in slopes])
    turn = (angles - slope_angles) % math.pi
    mismatched = np.minimum(turn, math.pi - turn) > tol.parallel
    if mismatched.any():
        i = int(np.argmax(mismatched))
        raise SlopeMismatch(
            f"edge {i} at angle {angles[i]!r} is not parallel to slope {slopes[i].angle!r}"
        )
    codirected = edges[:, 0] * np.cos(slope_angles) + edges[:, 1] * np.sin(slope_angles) > 0.0
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    return float(np.sum(np.where(codirected, lengths, -lengths)))
