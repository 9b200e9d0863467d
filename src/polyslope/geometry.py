"""Planar primitives: slope systems, polygon chains, and the signed
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

import functools
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
EPS = float(np.finfo(float).eps)
INTEGRAL_SUM = 16.0  # eps n max(1, |ratio|): n rounded terms, integral by construction
ON_EDGE = 8.0  # eps hypot(cross, dot): the cross product deciding a side of an edge


def left_normal(angle: float) -> np.ndarray:
    """Unit normal pointing to the left of the direction at ``angle``."""
    return np.array([-math.sin(angle), math.cos(angle)])


def left_normals(angles) -> np.ndarray:
    """Left unit normals of the directions at ``angles``, one row per angle."""
    angles = np.asarray(angles, dtype=float)
    return np.column_stack((-np.sin(angles), np.cos(angles)))


@functools.lru_cache(maxsize=None)
def _cyclic_index(m: int, step: int) -> np.ndarray:
    return (np.arange(m) + step) % m


def _cycled(rows: np.ndarray, step: int = 1, axis: int = 0) -> np.ndarray:
    """Entries shifted cyclically along ``axis``: entry i holds entry i + step."""
    return rows.take(_cyclic_index(rows.shape[axis], step), axis)


def line_gap(a, b):
    """Angular distance between undirected lines (angles mod pi), elementwise."""
    d = (a - b) % math.pi
    return np.minimum(d, math.pi - d)


def integral_ratio(ratio, terms: float):
    """The integers nearest ``ratio``, a sum of ``terms`` rounded terms that is
    integral by construction, and whether each is off by more than INTEGRAL_SUM
    terms eps max(1, |ratio|).  A caller whose terms come from operands far
    larger than the ratio's unit counts each term once per such unit."""
    nearest = np.rint(ratio)
    bound = INTEGRAL_SUM * terms * EPS
    return nearest, np.abs(ratio - nearest) > bound * np.maximum(1.0, np.abs(ratio))


def line_vertices(angles, offsets, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Vertices ``v_i = e_{i-1} ^ e_i`` of the directed lines (angles, offsets)
    along the last axis of (..., m) stacks, shape (..., m, 2).  Raises
    ParallelLines for the first consecutive pair, in row-major order, that is
    parallel within tolerance."""
    angles, offsets = np.asarray(angles, dtype=float), np.asarray(offsets, dtype=float)
    before = _cycled(angles, -1, -1)
    det = np.sin(angles - before)
    parallel = np.abs(det) < math.sin(min(tol.parallel, 0.5 * math.pi))
    if parallel.any():
        at = np.unravel_index(np.argmax(parallel), parallel.shape)
        raise ParallelLines(
            f"lines at angles {float(before[at])!r} and {float(angles[at])!r} "
            "are parallel within tolerance"
        )
    cos, sin = np.cos(angles), np.sin(angles)
    offsets_before = _cycled(offsets, -1, -1)
    x = (cos * offsets_before - _cycled(cos, -1, -1) * offsets) / det
    y = (sin * offsets_before - _cycled(sin, -1, -1) * offsets) / det
    return np.stack((x, y), axis=-1)


class SlopeSystem:
    """Ordered directed slopes: one read-only float64 array of angles.

    ``angles[i]`` is the direction of slope i reduced to [0, 2pi).  A
    remainder that rounds up to 2pi is stored as 0.0, so reducing again is
    the identity and ``SlopeSystem(system.angles)`` equals ``system`` bit for
    bit.  The array is the whole representation: every check and closed form
    reads it.

    Construction requires n >= 3 and consecutive slopes non-parallel as lines
    (this is what the turning quantities need), each pair's d = (a_i - a_j)
    mod pi and pi - d at least ``DEFAULT_TOL.parallel``.  The rules of a
    chart, pairwise non-parallel lines among them, are defined once, by
    :func:`polyslope.slope_space.chart_stack`.
    """

    def __init__(self, angles: Iterable[float]):
        angles = [a % TWO_PI for a in angles]
        if TWO_PI in angles:
            angles = [0.0 if a == TWO_PI else a for a in angles]
        n = len(angles)
        if n < 3:
            raise ValueError("a slope system needs at least three slopes")
        tol, pi = DEFAULT_TOL.parallel, math.pi
        for i in range(n):
            d = (angles[i] - angles[(i + 1) % n]) % pi
            if d < tol or pi - d < tol:
                raise ParallelLines(
                    f"consecutive slopes {i} and {(i + 1) % n} are parallel as lines"
                )
        array = np.array(angles, dtype=float)
        array.setflags(write=False)
        object.__setattr__(self, "angles", array)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def from_angles(cls, angles: Iterable[float]) -> "SlopeSystem":
        """The system of the given radians; the constructor's loops run
        several times faster on the Python floats of an array's ``tolist``."""
        if isinstance(angles, np.ndarray):
            angles = angles.tolist()
        return cls(angles)

    @classmethod
    def from_degrees(cls, degrees: Iterable[float]) -> "SlopeSystem":
        return cls(map(math.radians, degrees))

    def __len__(self) -> int:
        return len(self.angles)

    def __eq__(self, other):
        if not isinstance(other, SlopeSystem):
            return NotImplemented
        return self.angles.tolist() == other.angles.tolist()

    def __hash__(self) -> int:
        return hash(tuple(self.angles.tolist()))

    def __repr__(self) -> str:
        return f"SlopeSystem.from_angles({self.angles.tolist()!r})"

    @property
    def n(self) -> int:
        return len(self.angles)

    def rotated(self, shift: int) -> "SlopeSystem":
        """Cyclically relabelled system starting at index ``shift``."""
        k = shift % self.n
        angles = self.angles.tolist()
        return SlopeSystem(angles[k:] + angles[:k])

    def require_pairwise_nonparallel(self, tol: Tolerances = DEFAULT_TOL) -> None:
        """ParallelLines for the first pair that breaks the lines rule of
        :func:`polyslope.slope_space.chart_stack`."""
        # Imported here: slope_space imports this module.
        from .slope_space import LINES, chart_stack
        chart_stack(self.angles, tol).require(LINES)


# Consecutive vertices closer than this fraction of the diameter coincide.
COINCIDENT = 1e-12


def diameters(vertices: np.ndarray) -> np.ndarray:
    """Bounding-box diagonals of a (..., m, 2) stack of vertex lists."""
    spread = vertices.max(axis=-2) - vertices.min(axis=-2)
    return np.hypot(spread[..., 0], spread[..., 1])


def require_distinct(vertices: np.ndarray) -> None:
    """The check of :class:`PolygonChain` on a (..., m, 2) vertex stack: the first
    polygon with an edge of at most ``COINCIDENT`` times its diameter raises."""
    edges = _cycled(vertices, 1, -2) - vertices
    lengths = np.hypot(edges[..., 0], edges[..., 1])
    short = (lengths <= COINCIDENT * diameters(vertices)[..., None]).any(axis=-1)
    if short.any():
        bad = int(np.argmin(lengths[np.unravel_index(np.argmax(short), short.shape)]))
        raise CoincidentVertices(f"vertices {bad} and {(bad + 1) % lengths.shape[-1]} coincide")


@dataclass(frozen=True, eq=False)
class PolygonChain:
    """Oriented closed broken line given by its vertex list.

    The vertex list is cyclic; consecutive vertices must be distinct.
    Self-intersection and zero total area are allowed.  Edge data and the
    diameter are computed on first read and kept.
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
        require_distinct(verts)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @functools.cached_property
    def diameter(self) -> float:
        """Diagonal of the bounding box, used as the polygon scale."""
        return float(diameters(self.vertices))

    @functools.cached_property
    def edge_vectors(self) -> np.ndarray:
        return _cycled(self.vertices) - self.vertices

    @functools.cached_property
    def edge_lengths(self) -> np.ndarray:
        e = self.edge_vectors
        return np.hypot(e[:, 0], e[:, 1])

    @functools.cached_property
    def edge_angles(self) -> np.ndarray:
        e = self.edge_vectors
        return np.arctan2(e[:, 1], e[:, 0]) % TWO_PI


def polygon_from_lines(
    angles: Sequence[float],
    offsets: Sequence[float],
    tol: Tolerances = DEFAULT_TOL,
) -> PolygonChain:
    """Polygon whose edge ``i`` lies on the directed line (angles[i], offsets[i]).

    Vertices follow the convention ``v_i = e_{i-1} ^ e_i`` (:func:`line_vertices`).
    """
    if len(offsets) != len(angles):
        raise ValueError("angles and offsets must have equal length")
    return PolygonChain(line_vertices(angles, offsets, tol))


def tangential_offsets(angles: Sequence[float], inradius) -> np.ndarray:
    """X, the polygon of the lines at ``angles`` tangent to the circle about c
    of signed radius r (r > 0: circle left of every line) being c - X.  Row
    i + 1 (edges i, i + 1) is (r / cos(tau_i / 2)) n(phi_i + tau_i / 2), with
    tau_i = (phi_{i+1} - phi_i) mod 2pi and n the left normal.  ``inradius``
    may be a (K,) stack of radii: the result is then the (K, n, 2) stack of
    their offsets, each row equal to that of its radius alone."""
    angles = np.asarray(angles, dtype=float)
    half = 0.5 * ((_cycled(angles) - angles) % TWO_PI)
    scales = np.asarray(inradius, dtype=float)[..., None] / np.cos(half)
    return _cycled(scales[..., None] * left_normals(angles + half), -1, -2)


def tangential_polygon(angles: Sequence[float], center, inradius: float) -> PolygonChain:
    """Polygon of the lines tangent to a circle (:func:`tangential_offsets`),
    its one-row call."""
    return PolygonChain(center - tangential_offsets(angles, inradius))


def edge_offsets(vertices: np.ndarray, angles: Sequence[float]) -> np.ndarray:
    """Line offsets of the edges of an (n, 2) vertex list, edge i leaving
    vertex i, measured against the given angles."""
    return np.einsum("ij,ij->i", left_normals(angles), vertices)


def oriented_areas(vertices: np.ndarray) -> np.ndarray:
    """Shoelace areas of a (..., m, 2) stack of vertex lists, signed by
    orientation: the integral of the winding number over the plane, so
    self-intersecting polygons are handled consistently."""
    v, w = vertices, _cycled(vertices, 1, -2)
    return 0.5 * (v[..., 0] * w[..., 1] - w[..., 0] * v[..., 1]).sum(axis=-1)


def oriented_area(polygon: PolygonChain) -> float:
    """Shoelace area of one polygon (:func:`oriented_areas`)."""
    return float(oriented_areas(polygon.vertices))


def winding_numbers(vertices: np.ndarray, points) -> np.ndarray:
    """Winding numbers of a (..., m, 2) stack of vertex lists around (..., 2)
    points by summed signed angles, correct for self-intersecting polygons.
    The first polygon to fail raises PointOnBoundary (its point on an edge)
    or NonIntegralTurn (the angle sum off :func:`integral_ratio`'s rule)."""
    points = np.asarray(points, dtype=float)[..., None, :]
    rel = vertices - points
    nxt = _cycled(rel, 1, -2)
    cross = rel[..., 0] * nxt[..., 1] - rel[..., 1] * nxt[..., 0]
    dot = np.einsum("...ij,...ij->...i", rel, nxt)
    # Past an edge the angle nears +-pi, signed by cross, which errs by 2 eps hypot.
    on_edge = (dot <= 0.0) & (np.abs(cross) <= ON_EDGE * EPS * np.hypot(cross, dot))
    if on_edge.any():
        *row, i = np.unravel_index(np.argmax(on_edge), on_edge.shape)
        point = np.broadcast_to(points, vertices.shape)[(*row, 0)]
        raise PointOnBoundary(f"point {point.tolist()} lies on edge {i}")
    turns = np.arctan2(cross, dot).sum(axis=-1) / TWO_PI
    nearest, off = integral_ratio(turns, vertices.shape[-2])
    if off.any():
        row = np.unravel_index(np.argmax(off), off.shape)
        raise NonIntegralTurn(
            f"winding residual {float(turns[row] - nearest[row])!r} exceeds tolerance"
        )
    return nearest.astype(int)


def winding_number(polygon: PolygonChain, point) -> int:
    """Winding number of one polygon around ``point`` (:func:`winding_numbers`)."""
    return int(winding_numbers(polygon.vertices, point))


def turning_sum(system: SlopeSystem) -> tuple[float, int, int]:
    """The cyclic sum t = k * pi of consecutive line angles, k and the number of
    right turns: the turning rule of :func:`polyslope.slope_space.chart_stack`."""
    # Imported here: slope_space imports this module.
    from .slope_space import INTEGRAL, RANGE, chart_stack, turning_rule
    total, k, right_turns, off, outside = turning_rule(system.angles)
    if off or outside:
        chart_stack(system.angles).require(INTEGRAL, RANGE)
    return float(total), int(k), int(right_turns)


def edges_against_slopes(vertices: np.ndarray, slope_angles, tol: Tolerances):
    """The edges of a (..., m, 2) vertex stack, edge i leaving vertex i, their
    lengths and directions in [0, 2pi), and the mask of the edges off slope i
    by more than ``tol.parallel`` plus 256 eps (diameter + max|coordinate|) /
    length: the roundoff of a direction read off vertices that were built at
    the polygon's scale and rounded at their own magnitude."""
    edges = _cycled(vertices, 1, -2) - vertices
    lengths = np.hypot(edges[..., 0], edges[..., 1])
    angles = np.arctan2(edges[..., 1], edges[..., 0]) % TWO_PI
    scales = diameters(vertices) + np.max(np.abs(vertices), axis=(-2, -1))
    roundoff = 256.0 * EPS * scales[..., None] / lengths
    return edges, lengths, angles, line_gap(angles, slope_angles) > tol.parallel + roundoff


def signed_perimeters(vertices: np.ndarray, slope_angles, tol: Tolerances = DEFAULT_TOL):
    """Edge lengths summed with signs against the declared slope directions,
    for a (..., m, 2) vertex stack and slope angles of shape (..., m) or (m,).

    Edge ``i`` contributes +length when its traversal is codirected with
    slope ``i`` and -length otherwise.  Raises SlopeMismatch for the first
    edge, in row-major order, that :func:`edges_against_slopes` finds off
    its slope.
    """
    edges, lengths, angles, mismatched = edges_against_slopes(vertices, slope_angles, tol)
    if mismatched.any():
        at = np.unravel_index(np.argmax(mismatched), mismatched.shape)
        slope = np.broadcast_to(slope_angles, angles.shape)[at]
        raise SlopeMismatch(
            f"edge {at[-1]} at angle {float(angles[at])!r} is not parallel to slope "
            f"{float(slope)!r}"
        )
    codirected = edges[..., 0] * np.cos(slope_angles) + edges[..., 1] * np.sin(slope_angles) > 0.0
    return np.where(codirected, lengths, -lengths).sum(axis=-1)


def signed_perimeter(
    polygon: PolygonChain,
    system: SlopeSystem,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Signed perimeter of one polygon against ``system`` (:func:`signed_perimeters`)."""
    if system.n != polygon.n:
        raise SlopeMismatch(f"polygon has {polygon.n} edges but {system.n} slopes were given")
    return float(signed_perimeters(polygon.vertices, system.angles, tol))
