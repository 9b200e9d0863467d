"""Cyclic polygons, the bifurcation functional, dual tangential polygons, and
the Morse index of the oriented area on the fixed-edge-length space.

A cyclic polygon is given by its circumscribed circle and the angular
positions of its vertices.  Each edge carries an orientation sign (center on
the left or right of the directed chord) and a half central angle; the sum of
signed tangents of the half angles is the bifurcation functional whose zero
locus is where critical points of the area degenerate.  The dual polygon is
cut out by the tangent lines at the vertices, oriented with the circle on the
left; its signed perimeter is proportional to the bifurcation functional,
which ties the two Morse theories together.

The area index is computed numerically on the space of polygons with fixed
edge lengths, charted by edge direction angles with the first angle frozen:
the closure condition is the constraint, and one SVD of its Jacobian at the
critical point gives both the least-squares Lagrange multipliers and the
orthonormal basis of its null space that the Hessian is projected onto.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AntipodalVertices,
    Bifurcating,
    CoincidentVertices,
    DegenerateCritical,
    LengthMismatch,
    NotCritical,
    ParallelLines,
)
from .geometry import (
    TWO_PI,
    PolygonChain,
    SlopeSystem,
    _cycled,
    integral_ratio,
    tangential_polygon,
)
from .slope_space import build_chart
from .tangential import morse_index_formula, sign_count_index, tangential_critical_points
from .tolerances import DEFAULT_TOL, Tolerances


# Consecutive vertices are antipodal when their half central angle lies within
# this many radians of pi/2; their tangent lines are then nearly parallel.
ANTIPODAL = 1e-6


@dataclass(frozen=True, eq=False)
class CyclicPolygon:
    """Polygon inscribed in a circle: center, radius, vertex angles (radians).

    ``phis`` are reduced to [0, 2pi) as :class:`SlopeSystem` stores slopes
    (a remainder that rounds up to 2pi is 0.0), so the vertices, from their
    cos and sin, and the invariants, from their differences, read one polygon.
    """

    center: np.ndarray
    radius: float
    phis: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        phis = np.asarray(self.phis, dtype=float)
        if center.shape != (2,):
            raise ValueError("center must be a point")
        if float(self.radius) <= 0:
            raise ValueError("radius must be positive")
        if phis.ndim != 1 or len(phis) < 3:
            raise ValueError("need at least three vertex angles")
        center = center.copy()
        phis = phis % TWO_PI
        phis[phis == TWO_PI] = 0.0
        center.setflags(write=False)
        phis.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "phis", phis)
        arcs = (_cycled(phis) - phis) % TWO_PI
        for i, arc in enumerate(arcs):
            if min(arc, TWO_PI - arc) < DEFAULT_TOL.parallel:
                raise CoincidentVertices(f"vertices {i} and {(i + 1) % len(phis)} coincide")
            if abs(arc - math.pi) <= 2.0 * ANTIPODAL:
                raise AntipodalVertices(
                    f"vertices {i} and {(i + 1) % len(phis)} are antipodal"
                )

    @classmethod
    def from_degrees(cls, radius: float, phis_deg, center=(0.0, 0.0)) -> "CyclicPolygon":
        return cls(
            center=np.asarray(center, dtype=float),
            radius=radius,
            phis=np.radians(np.asarray(phis_deg, dtype=float)),
        )

    @property
    def n(self) -> int:
        return len(self.phis)

    @property
    def vertices(self) -> np.ndarray:
        return _circle_points(self.center, self.radius, self.phis)

    @functools.cached_property
    def polygon(self) -> PolygonChain:
        return PolygonChain(self.vertices)


def _circle_points(center, radius, phis) -> np.ndarray:
    return center + radius * np.column_stack([np.cos(phis), np.sin(phis)])


@dataclass(frozen=True, eq=False)
class CyclicInvariants:
    """Edge orientation signs, half angles, and derived counts of a cyclic polygon.

    ``orientations[i]`` is +1 when the center lies left of the directed edge,
    ``half_angles[i]`` is half the unoriented central angle of edge i,
    ``positive_edges`` counts the +1 entries, ``winding`` is the winding
    number around the center, and ``bifurcation_sum`` is the signed sum of
    tangents of the half angles.
    """

    orientations: np.ndarray
    half_angles: np.ndarray
    positive_edges: int
    winding: int
    bifurcation_sum: float


@dataclass(frozen=True, eq=False)
class DualPolygon:
    """Tangential polygon cut out by the tangent lines at the cyclic vertices;
    its incircle is the circumscribed circle of the cyclic polygon."""

    polygon: PolygonChain
    slopes: SlopeSystem


@dataclass(frozen=True, eq=False)
class DualityReport:
    """The area index by both routes, and the dual perimeter index.

    ``mu_area_numeric`` comes from the Lagrangian Hessian, ``mu_area_formula``
    from the edge counts and winding.  Without a dual index (parallel or
    exceptional dual slopes) ``mu_dual_perimeter`` is None, ``dual_note``
    says why and ``identity_holds`` compares the two area routes alone.
    """

    mu_area_numeric: int
    mu_area_formula: int
    mu_dual_perimeter: int | None
    dual_note: str | None
    identity_holds: bool


def cyclic_invariants(cyclic: CyclicPolygon) -> CyclicInvariants:
    """Orientation signs, half angles, edge count, winding and bifurcation sum.

    The winding number is accumulated from the signed arcs (arc if the edge
    is positively oriented, arc - 2*pi otherwise) and must come out integral;
    it coincides with the geometric winding number around the center.
    """
    arcs = (_cycled(cyclic.phis) - cyclic.phis) % TWO_PI
    forward = arcs < math.pi
    orientations = np.where(forward, 1, -1)
    half_angles = np.minimum(arcs, TWO_PI - arcs) / 2.0
    turns = float(np.sum(np.where(forward, arcs, arcs - TWO_PI))) / TWO_PI
    winding, off = integral_ratio(turns, cyclic.n)
    if off:
        raise NotCritical(f"arc sum {turns!r} turns is not integral")
    return CyclicInvariants(
        orientations=orientations,
        half_angles=half_angles,
        positive_edges=int(np.count_nonzero(forward)),
        winding=int(winding),
        bifurcation_sum=float(np.sum(orientations * np.tan(half_angles))),
    )


def bifurcation_test(inv: CyclicInvariants, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the signed tangent sum vanishes within tolerance."""
    scale = float(np.sum(np.abs(np.tan(inv.half_angles))))
    return abs(inv.bifurcation_sum) < tol.bifurcation * scale


def dual_slopes(cyclic: CyclicPolygon) -> SlopeSystem:
    """Slopes of the :func:`dual_polygon`: the tangent directions phi + pi/2."""
    return SlopeSystem.from_angles((cyclic.phis + 0.5 * math.pi) % TWO_PI)


def dual_polygon(cyclic: CyclicPolygon) -> DualPolygon:
    """Polygon of tangent lines at the vertices, circle kept on the left.

    The tangent at vertex angle phi runs at direction phi + pi/2, so the dual
    is :func:`tangential_polygon` of those directions about the center with
    signed inradius +R.  Consecutive tangents of a valid cyclic polygon
    always meet (non-antipodal consecutive vertices).
    """
    slopes = dual_slopes(cyclic)
    return DualPolygon(
        polygon=tangential_polygon(slopes.angles, cyclic.center, cyclic.radius),
        slopes=slopes,
    )


# ---------------------------------------------------------------------------
# Edge-direction chart on the space of polygons with fixed edge lengths.
# ---------------------------------------------------------------------------


def _edge_vectors(lengths: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    return lengths[:, None] * np.column_stack([np.cos(thetas), np.sin(thetas)])


def _rot90(vectors: np.ndarray) -> np.ndarray:
    return np.column_stack([-vectors[:, 1], vectors[:, 0]])


def _head_differences(w: np.ndarray) -> np.ndarray:
    """Row j, for j < n - 1: the sum of w_i over i < j minus that over j < i <= n - 2."""
    head = w[:-1]
    prefix = np.vstack([np.zeros(2), np.cumsum(head[:-1], axis=0)])
    after = head.sum(axis=0) - prefix - head
    return prefix - after


def _area_gradient(w: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Gradient, in all edge angles, of the shoelace area of the chain of
    edge vectors w started at the origin and closed by a chord, diff their
    :func:`_head_differences`.  The chord-closed area equals the polygon's
    area where the edges close, and the last edge drops out of it."""
    wp = _rot90(w)[:-1]
    grad = np.zeros(len(w))
    grad[:-1] = 0.5 * (diff[:, 0] * wp[:, 1] - diff[:, 1] * wp[:, 0])
    return grad


def _area_hessian(w: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Hessian, in all edge angles, of the chord-closed area of
    :func:`_area_gradient`."""
    n = len(w)
    x, y = w[:-1, 0], w[:-1, 1]
    # Off the diagonal, cross(w_j', w_k') equals cross(w_j, w_k).
    upper = np.triu(0.5 * (np.outer(x, y) - np.outer(y, x)), 1)
    hess = np.zeros((n, n))
    hess[:-1, :-1] = upper + upper.T
    hess[np.arange(n - 1), np.arange(n - 1)] = -0.5 * (diff[:, 0] * y - diff[:, 1] * x)
    return hess


def _tangent_frame(w: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Null-space basis of the closure Jacobian J on the free angles, and the
    Lagrange multipliers of ``grad``, from one SVD J = U S V^T.

    w are the edge vectors and ``grad`` the area gradient in the free angles.
    The rank is cut at max(s) * eps * max(shape).  The basis is the trailing
    right singular vectors; the multipliers lambda = U S^+ V^T grad are the
    least-squares solution of J^T lambda = grad of least norm, the solve an
    SVD gives (Golub and Van Loan, Matrix Computations, sec. 5.5).
    """
    jac = _rot90(w).T[:, 1:]
    u, s, vh = np.linalg.svd(jac)
    rank = np.count_nonzero(s > s[0] * np.finfo(float).eps * max(jac.shape))
    multipliers = u[:, :rank] @ ((vh[:rank] @ grad) / s[:rank])
    return vh[rank:].T, multipliers


def area_criticality_residual(polygon: PolygonChain, lengths) -> float:
    """Norm of the area gradient projected onto the closure tangent space.

    Vanishes exactly at cyclic configurations.  Raises LengthMismatch when
    the vertices do not realize the given lengths within 64 eps (sum l +
    max|coordinate|), the roundoff of lengths read off the vertices.
    """
    lengths = np.asarray(lengths, dtype=float)
    actual = polygon.edge_lengths
    if lengths.shape != actual.shape:
        raise LengthMismatch("wrong number of edge lengths")
    scale = float(np.sum(lengths)) + float(np.max(np.abs(polygon.vertices)))
    if not float(np.max(np.abs(actual - lengths))) <= 64.0 * np.finfo(float).eps * scale:
        raise LengthMismatch("vertices do not realize the prescribed edge lengths")
    w = _edge_vectors(lengths, polygon.edge_angles)
    grad = _area_gradient(w, _head_differences(w))[1:]
    basis, _ = _tangent_frame(w, grad)
    return float(np.linalg.norm(basis.T @ grad))


def area_morse_index_numeric(cyclic: CyclicPolygon) -> int:
    """Morse index of the area at the cyclic configuration, by eigenvalue count.

    Builds the projected Hessian B^T L B, L = H_area - lambda . H_closure, in
    the frozen-first-angle chart, with least-squares Lagrange multipliers,
    and counts its negative eigenvalues.  The edge vectors are built once for
    the gradient and the Hessian, and one SVD of the constraint Jacobian
    gives both B and the multipliers (:func:`_tangent_frame`).  An
    eigenvalue within the roundoff bound 500 * n * eps * max|L| of zero
    raises DegenerateCritical (the bifurcation signature).  The bound is
    relative to L, not to the projected matrix, which is 1 x 1 at n = 4.  Its constant is measured on seeded
    random polygons, n 4..9: at 360 bifurcation roots bisected to adjacent
    floats, min|eigenvalue| was at most 27 n eps max|L|; on 360 polygons with
    1e-9 <= |B| / sum|tan alpha| <= 1e-7, at least 1.0e4 n eps max|L|.  The
    constant sits about twenty times from each.

    The index depends on the vertex angles alone, so the polygon is rebuilt
    on the unit circle about the origin: the edge lengths stay of order one
    whatever the radius, and their squares cannot overflow.  Its vertex
    angles are those of ``cyclic``, whose constructor has kept them apart,
    so its edges are read off the vertices as :class:`PolygonChain` reads
    them, without that class's check.
    """
    vertices = _circle_points(np.zeros(2), 1.0, cyclic.phis)
    edges = _cycled(vertices) - vertices
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    w = _edge_vectors(lengths, np.arctan2(edges[:, 1], edges[:, 0]) % TWO_PI)
    diff = _head_differences(w)
    grad = _area_gradient(w, diff)[1:]
    basis, multipliers = _tangent_frame(w, grad)
    scale = max(1.0, float(np.sum(lengths)) ** 2)
    residual = float(np.linalg.norm(basis.T @ grad))
    if residual > 1e-8 * scale:
        raise NotCritical(f"cyclic polygon fails the criticality test ({residual!r})")
    if basis.shape[1] == 0:
        return 0  # a triangle is rigid: the area has no direction to move in
    # The closure Hessian is diagonal: d^2 w_i / d theta_i^2 = -w_i.
    lagrangian = _area_hessian(w, diff)[1:, 1:] + np.diag(w[1:] @ multipliers)
    eigenvalues = np.linalg.eigvalsh(basis.T @ lagrangian @ basis)
    bound = 500.0 * cyclic.n * np.finfo(float).eps * float(np.max(np.abs(lagrangian)))
    if np.any(np.abs(eigenvalues) <= bound):
        raise DegenerateCritical(f"area Hessian eigenvalue within roundoff bound {bound!r}")
    return int(np.count_nonzero(eigenvalues < 0))


def area_morse_index_formula(inv: CyclicInvariants, tol: Tolerances = DEFAULT_TOL) -> int:
    """Morse index of the area from edge counts, winding, and the tangent sum."""
    if bifurcation_test(inv, tol):
        raise Bifurcating("index undefined on the bifurcation locus")
    correction = 0 if inv.bifurcation_sum > 0 else 1
    return inv.positive_edges - 1 - 2 * inv.winding - correction


def duality_index_check(
    cyclic: CyclicPolygon,
    invariants: CyclicInvariants,
    dual_slopes: SlopeSystem,
    tol: Tolerances = DEFAULT_TOL,
) -> DualityReport:
    """Area index versus dual perimeter index: mu_area = n - 3 - mu_dual.

    The one place that computes the cyclic indices; reports and sweeps read
    its result.  The dual polygon is tangential with positive inradius,
    hence (after the area normalization, which leaves the index unchanged)
    it is the positive critical point of the perimeter for its own slope
    system; its index is the exact sign count of :func:`sign_count_index`,
    cross-checked against the turn/winding formula.  A dual slope system
    with parallel lines or an exceptional one has no such index, and the
    report says why in ``dual_note``.  Raises Bifurcating on the
    bifurcation locus.  ``invariants`` are :func:`cyclic_invariants` of ``cyclic`` and
    ``dual_slopes`` its :func:`dual_slopes`.
    """
    # The formula goes first: on the bifurcation locus it raises Bifurcating,
    # where the numeric route would only see a degenerate Hessian.
    mu_formula = area_morse_index_formula(invariants, tol)
    mu_numeric = area_morse_index_numeric(cyclic)
    mu_dual, note = None, None
    try:
        points = tangential_critical_points(build_chart(dual_slopes, tol), tol)
        if not points:
            raise Bifurcating("dual slope system is exceptional")
    except (ParallelLines, Bifurcating) as exc:
        note = f"dual perimeter index unavailable: {exc}"
    else:
        positive, chart = points[0], points[0].chart  # the point of inradius r > 0
        mu_dual = int(sign_count_index(chart.unit_perimeters, chart.perimeter_sum, 1.0))
        if mu_dual != morse_index_formula(positive):
            raise DegenerateCritical("dual index routes disagree")
    return DualityReport(
        mu_area_numeric=mu_numeric,
        mu_area_formula=mu_formula,
        mu_dual_perimeter=mu_dual,
        dual_note=note,
        identity_holds=mu_numeric == mu_formula
        and (mu_dual is None or mu_formula == cyclic.n - 3 - mu_dual),
    )
