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
    NonIntegralTurn,
    ParallelLines,
    PointOnBoundary,
    SlopeMismatch,
)
from .tolerances import DEFAULT_TOL, Tolerances

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)
INTEGRAL_SUM = 16.0  # eps n max(1, |ratio|): n rounded terms, integral by construction
NOT_FINITE = "slope angles must be finite"
ON_EDGE = 8.0  # eps (|x y'| + |y x'|): the cross product deciding a side of an edge


def left_normal(angle: float) -> np.ndarray:
    """Unit normal pointing to the left of the direction at ``angle``."""
    return np.array([-math.sin(angle), math.cos(angle)])


def left_normals(angles) -> np.ndarray:
    """Left unit normals of the directions at ``angles``, one row per angle."""
    angles = np.asarray(angles, dtype=float)
    normals = np.empty(angles.shape + (2,))
    normals[..., 0] = -np.sin(angles)
    normals[..., 1] = np.cos(angles)
    return normals


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


def integral_ratio(ratio, terms: int):
    """The integers nearest ``ratio``, a sum of ``terms`` rounded terms that is
    integral by construction (the windings of :func:`winding_numbers`), and
    whether each is off by more than INTEGRAL_SUM terms eps max(1, |ratio|)."""
    nearest = np.rint(ratio)
    bound = INTEGRAL_SUM * terms * EPS
    return nearest, np.abs(ratio - nearest) > bound * np.maximum(1.0, np.abs(ratio))


def turn_tangents(angles) -> np.ndarray:
    """tan(tau_i / 2) of the turns tau_i = s_{i+1} - s_i of consecutive angles
    along the last axis, cyclically: the one computation of a turn tangent.
    tan(x / 2) has period 2pi, so the raw differences need no reduction mod
    2pi, which would add the rounding of 2pi to every negative one."""
    angles = np.asarray(angles, dtype=float)
    return np.tan(0.5 * (_cycled(angles, 1, -1) - angles))


# For t in (-2pi, 2pi), floor(t / pi) + 2 counts those at or below t.
_PI_MULTIPLES = np.array([-math.pi, 0.0, math.pi])


def turning_rule(angles: np.ndarray):
    """The integers k = -sum f_i and RT = #{odd f_i} along the last axis of
    angles in [0, 2pi), from the floors f_i = floor(tau_i / pi) of the turns
    tau_i = s_{i+1} - s_i, read as the counts f_i + 2 of the multiples of pi
    at or below tau_i.  As sum tau_i = 0, the line turns tau_i - f_i pi, each
    in (0, pi) where the lines rule holds, add up to k pi, 0 < k < n."""
    steps = _cycled(angles, 1, -1) - angles
    counts = _PI_MULTIPLES.searchsorted(steps, "right")
    return 2 * steps.shape[-1] - counts.sum(axis=-1), (counts & 1).sum(axis=-1)


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
    vertices = np.empty(x.shape + (2,))
    vertices[..., 0] = x
    vertices[..., 1] = (sin * offsets_before - _cycled(sin, -1, -1) * offsets) / det
    return vertices


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
    def _unchecked(cls, angles: np.ndarray) -> "SlopeSystem":
        """The system of a float64 array of angles in [0, 2pi) whose consecutive
        lines the caller has kept apart, made read-only in place: no loop."""
        angles.setflags(write=False)
        system = object.__new__(cls)
        object.__setattr__(system, "angles", angles)
        return system

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


def diameters(vertices: np.ndarray) -> np.ndarray:
    """Bounding-box diagonals of a (..., m, 2) stack of vertex lists."""
    spread = vertices.max(axis=-2) - vertices.min(axis=-2)
    return np.hypot(spread[..., 0], spread[..., 1])


def _edge_pass(vertices: np.ndarray):
    """One pass over a (..., m, 2) vertex stack: its cycled vertices (vertex
    i + 1 in place i), its edges, edge i leaving vertex i, and their lengths."""
    following = _cycled(vertices, 1, -2)
    edges = following - vertices
    return following, edges, np.hypot(edges[..., 0], edges[..., 1])


@dataclass(frozen=True, eq=False)
class PolygonChain:
    """Oriented closed broken line given by its vertex list.

    The vertex list is cyclic and its coordinates finite, and so is their
    spread, the bounding box's diagonal.  Consecutive
    vertices may coincide: a zero edge, as on the hyperplanes l_j = 0 of the
    configuration space, lies along any slope.  Self-intersection and zero
    total area are allowed.  Edge data and the diameter are computed on
    first read and kept.
    """

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if len(verts) < 3:
            raise ValueError("a polygon needs at least three vertices")
        # The bounding box's diagonal in plain floats, which overflow with no
        # warning; a NaN or infinite coordinate leaves it non-finite too.
        (left, bottom), (right, top) = verts.min(axis=0).tolist(), verts.max(axis=0).tolist()
        if not math.isfinite(math.hypot(right - left, top - bottom)):
            if not np.isfinite(verts).all():
                raise ValueError("vertices must be finite")
            # Within a finite spread every edge and the diameter are finite.
            raise ValueError("vertices must spread within the float range")
        verts = verts.copy()
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)

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


def tangential_polygons(angles: Sequence[float], centers, inradii) -> np.ndarray:
    """The (K, n, 2) vertex lists of the lines at ``angles`` tangent to the
    circles of (K, 2) ``centers`` c and (K,) signed ``inradii`` r (r > 0:
    circle left of every line), unchecked: t_i = 0 where s_{i+1} = s_{i-1}, as
    at a fold of a cyclic dual, is a zero edge of a valid configuration.
    Edge i is r t_i u_i, t_i = tan(tau_{i-1} / 2) + tan(tau_i / 2) of the
    turns tau_i = phi_{i+1} - phi_i (:func:`turn_tangents`), from v_1 =
    (c - r n_1) - r tan(tau_n / 2) u_1, by one cumulative sum for every
    row.  At c = r n_1 the tangent point c - r n_1 of line 1 is exactly 0,
    and the polygon of -r is the exact point reflection of that of r."""
    angles = np.asarray(angles, dtype=float)
    halves = turn_tangents(angles)
    # steps[0] runs from the tangent point of line 1 to v_1, steps[i] along edge i.
    steps = np.empty(angles.shape + (2,))
    steps[:, 0], steps[:, 1] = np.cos(angles), np.sin(angles)
    steps[1:] = steps[:-1] * (_cycled(halves, -1)[:-1] + halves[:-1])[:, None]
    steps[0] *= -halves[-1]
    inradii = np.asarray(inradii, dtype=float)
    starts = np.asarray(centers, dtype=float) - inradii[:, None] * left_normal(angles[0])
    return starts[:, None] + inradii[:, None, None] * steps.cumsum(axis=0)


def edge_offsets(vertices: np.ndarray, angles: Sequence[float]) -> np.ndarray:
    """Line offsets of the edges of an (n, 2) vertex list, edge i leaving
    vertex i, measured against the given angles."""
    return np.einsum("ij,ij->i", left_normals(angles), vertices)


def edge_lengths_along(vertices: np.ndarray, angles) -> np.ndarray:
    """Signed lengths l_i = (v_{i+1} - v_i) . u_i of the edges of a (..., n, 2)
    vertex stack along the directions u_i at ``angles``, one row per polygon."""
    edges = _cycled(vertices, 1, -2) - vertices
    return edges[..., 0] * np.cos(angles) + edges[..., 1] * np.sin(angles)


@functools.lru_cache(maxsize=None)
def half_signs(n: int) -> np.ndarray:
    """The read-only (n, n) table 1/2 sign(j - i), shared by every caller."""
    order = np.arange(n)
    table = 0.5 * np.sign(order - order[:, None])
    table.setflags(write=False)
    return table


def area_form(angles: np.ndarray) -> np.ndarray:
    """The (n, n) matrix Q with oriented area 1/2 l^T Q l for the polygon of
    edges l_i u_i: Q_ij = 1/2 cross(u_i, u_j) sign(j - i), zero diagonal."""
    return np.sin(angles - angles[:, None]) * half_signs(len(angles))


def closure_basis(constraints) -> np.ndarray:
    """Orthonormal basis, one column per vector, of the null space of a (k, n)
    constraint matrix: the trailing right singular vectors of one SVD, its
    rank cut at max(s) eps max(k, n) (Golub and Van Loan, Matrix
    Computations, sec. 5.5), which does not square its conditioning."""
    constraints = np.asarray(constraints, dtype=float)
    _, s, vh = np.linalg.svd(constraints)
    return vh[np.count_nonzero(s > s[0] * EPS * max(constraints.shape)) :].T


def _binary_exponents(vertices: np.ndarray) -> np.ndarray:
    """The exponent m of each vertex list of a (..., m, 2) stack that puts its
    largest |coordinate| in [1/2, 1) times 2**m: scaled by 2**-m, exactly,
    its coordinate products stay in the float range."""
    return np.frexp(np.abs(vertices).max(axis=(-2, -1), keepdims=True, initial=0.0))[1]


def _shoelace(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`oriented_areas` of a vertex stack ``v`` and its cycled vertices
    ``w``, each list scaled by 2**-m (:func:`_binary_exponents`), exactly, and
    translated to its first vertex, so its products round at the polygon's
    size, not at its distance from the origin."""
    m = _binary_exponents(v)
    first = np.ldexp(v[..., :1, :], -m)
    v, w = np.ldexp(v, -m) - first, np.ldexp(w, -m) - first
    # The half is taken in the exponent: the sum may sit at the bottom of the normal range.
    return np.ldexp((v[..., 0] * w[..., 1] - w[..., 0] * v[..., 1]).sum(-1), 2 * m[..., 0, 0] - 1)


def oriented_areas(vertices: np.ndarray) -> np.ndarray:
    """Shoelace areas of a (..., m, 2) stack of vertex lists, signed by
    orientation: the integral of the winding number over the plane, so
    self-intersecting polygons are handled consistently."""
    return _shoelace(vertices, _cycled(vertices, 1, -2))


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
    rel = np.ldexp(rel, -_binary_exponents(rel))
    nxt = _cycled(rel, 1, -2)
    ahead, behind = rel[..., 0] * nxt[..., 1], rel[..., 1] * nxt[..., 0]
    cross = ahead - behind
    dot = np.einsum("...ij,...ij->...i", rel, nxt)
    # Past an edge the angle nears +-pi, signed by cross: it errs by 2 eps (|ahead| + |behind|).
    on_edge = (dot <= 0.0) & (np.abs(cross) <= ON_EDGE * EPS * (np.abs(ahead) + np.abs(behind)))
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
    """The cyclic sum k * pi of the line turns, k and the number of right
    turns: :func:`turning_rule` on the system's angles.
    A NaN angle raises ValueError, as the finite rule of a chart does."""
    if not np.isfinite(system.angles).all():
        raise ValueError(NOT_FINITE)
    k, right_turns = (int(x) for x in turning_rule(system.angles))
    return k * math.pi, k, right_turns


def _slope_rule(vertices, edges, lengths, sizes, slope_angles, tol: Tolerances):
    """The directions in [0, 2pi) of the edges of a (..., m, 2) vertex stack
    (from :func:`_edge_pass` and :func:`diameters`) and the mask of the edges
    off slope i by more than ``tol.parallel`` plus 256 eps (diameter +
    max|coordinate|) / length: the roundoff of a direction read off vertices
    that were built at the polygon's scale and rounded at their own magnitude
    (not finite on a zero edge, which lies along any slope)."""
    angles = np.arctan2(edges[..., 1], edges[..., 0]) % TWO_PI
    scales = sizes + np.abs(vertices).max(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        roundoff = 256.0 * EPS * scales[..., None] / lengths
    return angles, line_gap(angles, slope_angles) > tol.parallel + roundoff


def edges_against_slopes(vertices: np.ndarray, slope_angles, tol: Tolerances) -> np.ndarray:
    """The mask of the edges of a (..., m, 2) vertex stack, edge i leaving
    vertex i, that :func:`_slope_rule` finds off slope i."""
    _, edges, lengths = _edge_pass(vertices)
    return _slope_rule(vertices, edges, lengths, diameters(vertices), slope_angles, tol)[1]


def _signed_lengths(vertices, edges, lengths, slope_angles, tol: Tolerances, sizes=None):
    """The edge lengths of :func:`signed_perimeters`, each signed by its slope,
    from the stack's :func:`_edge_pass` and, when at hand, diameters.  An edge
    (x, y) with |x sin s - y cos s| + 2**-1000 <= 64 eps length lies within
    68 eps of the line of its slope s (sine, cosine and products err by under
    4 eps of the length), where the rule, exact to 20 eps, allows 256 eps or
    more (no edge outgrows the diameter): for tol.parallel >= 0 it passes
    every such edge, so it runs only on a stack with an edge not cleared."""
    x, y = edges[..., 0], edges[..., 1]
    cos, sin = np.cos(slope_angles), np.sin(slope_angles)
    if np.count_nonzero(np.abs(x * sin - y * cos) + 2.0**-1000 > 64.0 * EPS * lengths):
        sizes = diameters(vertices) if sizes is None else sizes
        angles, mismatched = _slope_rule(vertices, edges, lengths, sizes, slope_angles, tol)
        if mismatched.any():
            at = np.unravel_index(np.argmax(mismatched), mismatched.shape)
            raise SlopeMismatch(
                f"edge {at[-1]} at angle {float(angles[at])!r} is not parallel to slope "
                f"{float(np.broadcast_to(slope_angles, angles.shape)[at])!r}"
            )
    return np.where(x * cos + y * sin > 0.0, lengths, -lengths)


def signed_perimeters(vertices: np.ndarray, slope_angles, tol: Tolerances = DEFAULT_TOL):
    """Edge lengths summed with signs against the declared slope directions,
    for a (..., m, 2) vertex stack and slope angles of shape (..., m) or (m,).

    Edge ``i`` contributes +length when its traversal is codirected with
    slope ``i`` and -length otherwise.  Raises SlopeMismatch for the first
    edge, in row-major order, that :func:`_slope_rule` finds off its slope.
    """
    return _signed_lengths(vertices, *_edge_pass(vertices)[1:], slope_angles, tol).sum(axis=-1)


def polygon_measures(vertices: np.ndarray, slope_angles, tol: Tolerances = DEFAULT_TOL):
    """The (...) :func:`oriented_areas`, :func:`signed_perimeters` and
    :func:`diameters` of a (..., m, 2) vertex stack, bit for bit, from one
    pass over its edges.  The first edge off its slope raises as in
    :func:`signed_perimeters`; a zero edge lies along any slope."""
    following, edges, lengths = _edge_pass(vertices)
    sizes = diameters(vertices)
    signed = _signed_lengths(vertices, edges, lengths, slope_angles, tol, sizes)
    return _shoelace(vertices, following), signed.sum(axis=-1), sizes


def signed_perimeter(
    polygon: PolygonChain,
    system: SlopeSystem,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Signed perimeter of one polygon against ``system`` (:func:`signed_perimeters`)."""
    if system.n != polygon.n:
        raise SlopeMismatch(f"polygon has {polygon.n} edges but {system.n} slopes were given")
    return float(signed_perimeters(polygon.vertices, system.angles, tol))
