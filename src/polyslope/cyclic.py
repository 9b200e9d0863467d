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
the closure condition is the constraint, one SVD of its Jacobian gives the
orthonormal basis of its null space (``geometry.closure_basis``), and the
Lagrangian of the polygon's area, assembled in place from the edge vectors
with the closure multiplier in closed form, is projected onto it.  It checks
the formula n - 3 - mu_dual, mu_dual the dual's perimeter index by
:func:`~polyslope.tangential.index_pair` from the dual slopes' turns and B.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AntipodalVertices,
    Bifurcating,
    CoincidentVertices,
    DegenerateCritical,
    InputSchemaError,
    LengthMismatch,
    NotCritical,
    SlopeMismatch,
)
from .geometry import (
    EPS,
    TWO_PI,
    PolygonChain,
    SlopeSystem,
    _cycled,
    closure_basis,
    half_signs,
    signed_perimeters,
    tangential_polygons,
    turn_tangents,
    turning_sum,
)
from .tangential import index_pair
from .tolerances import DEFAULT_TOL, Tolerances


# Consecutive vertices are antipodal when their half central angle lies within
# this many radians of pi/2; their tangent lines are then nearly parallel.
ANTIPODAL = 1e-6

# Floor of the bifurcation band in |B| / sum|tan alpha|: below it the bound
# 500 n eps max|L| of area_morse_index_numeric can trip.  On 4,320 polygons
# of families.near_bifurcation_phis (n 4..9, ratios 1e-14 to 3e-9) it tripped
# on 1,737, all below 8.6e-11; from ratio 1e-12 up, min|eigenvalue| was at
# least 1.8e12 ratio n eps max|L|, so it can trip below 2.8e-10.  The floor
# is 3.6 times that; 4 times would pass the default 1e-9, left as it is.
B_RESOLUTION = 1e-9


@dataclass(frozen=True, eq=False)
class CyclicPolygon:
    """Polygon inscribed in a circle: center, radius, vertex angles (radians).

    ``phis`` are reduced to [0, 2pi) as :class:`SlopeSystem` stores slopes
    (a remainder that rounds up to 2pi is 0.0), so the vertices, from their
    cos and sin, and the invariants, from their differences, read one polygon.
    ``arcs[i]``, from vertex i to i + 1 in [0, 2pi), is kept from the check;
    the invariants and the dual slopes are computed on first read and kept.
    """

    center: np.ndarray
    radius: float
    phis: np.ndarray
    arcs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        phis = np.asarray(self.phis, dtype=float)
        if center.shape != (2,) or not np.isfinite(center).all():
            raise ValueError("center must be a finite point")
        if not 0.0 < float(self.radius) < math.inf:
            raise ValueError("radius must be positive and finite")
        if phis.ndim != 1 or len(phis) < 3 or not np.isfinite(phis).all():
            raise ValueError("need at least three finite vertex angles")
        center = center.copy()
        phis = phis % TWO_PI
        phis[phis == TWO_PI] = 0.0
        center.setflags(write=False)
        phis.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "phis", phis)
        arcs = (_cycled(phis) - phis) % TWO_PI
        arcs.setflags(write=False)
        object.__setattr__(self, "arcs", arcs)
        coincident = np.minimum(arcs, TWO_PI - arcs) < DEFAULT_TOL.parallel
        faults = coincident | (np.abs(arcs - math.pi) <= 2.0 * ANTIPODAL)
        if faults.any():
            i = int(np.argmax(faults))
            pair = f"vertices {i} and {(i + 1) % len(phis)}"
            if coincident[i]:
                raise CoincidentVertices(f"{pair} coincide")
            raise AntipodalVertices(f"{pair} are antipodal")

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

    @functools.cached_property
    def polygon(self) -> PolygonChain:
        unit = np.column_stack([np.cos(self.phis), np.sin(self.phis)])
        return PolygonChain(self.center + self.radius * unit)

    @functools.cached_property
    def invariants(self) -> "CyclicInvariants":
        return cyclic_invariants(self)

    @functools.cached_property
    def dual_slopes(self) -> SlopeSystem:
        """Slopes of the :func:`dual_polygon`: the tangent directions phi + pi/2."""
        return SlopeSystem.from_angles((self.phis + 0.5 * math.pi) % TWO_PI)


@dataclass(frozen=True, eq=False)
class CyclicInvariants:
    """Edge orientation signs, half angles, and derived counts of a cyclic polygon.

    ``orientations[i]`` is +1 when the center lies left of the directed edge,
    ``half_angles[i]`` is half the unoriented central angle of edge i,
    ``positive_edges`` counts the +1 entries, ``dual_half_turns`` is the dual
    slopes' k, ``winding`` the winding number around the center, B
    (``bifurcation_sum``) the signed sum of tangents of the half angles and
    ``tangent_scale`` the sum of their absolute values, the band's scale.
    """

    orientations: np.ndarray
    half_angles: np.ndarray
    positive_edges: int
    dual_half_turns: int
    winding: int
    bifurcation_sum: float
    tangent_scale: float


@dataclass(frozen=True, eq=False)
class DualPolygon:
    """Tangent-line polygon of the cyclic vertices about the circle's center, its signed
    perimeter, and ``polygon``, their PolygonChain (a fold's zero edge too) on first read."""

    vertices: np.ndarray
    slopes: SlopeSystem
    signed_perimeter: float

    @functools.cached_property
    def polygon(self) -> PolygonChain:
        return PolygonChain(self.vertices)


@dataclass(frozen=True, eq=False)
class DualityReport:
    """The area index by both routes, and the dual perimeter index.

    ``mu_dual_perimeter`` comes from the dual slopes' half turns and the
    sign of B, ``mu_area_formula`` is n - 3 less it, and ``mu_area_numeric``
    comes from the Lagrangian Hessian.  ``identity_holds`` says that the
    numeric index equals the formula, the one independent check.
    """

    mu_area_numeric: int
    mu_area_formula: int
    mu_dual_perimeter: int
    identity_holds: bool


def cyclic_invariants(cyclic: CyclicPolygon) -> CyclicInvariants:
    """Orientation signs, half angles and edge count, and the turn data of
    the dual slopes phi + pi/2, whose turns are the arcs: eps_i tan(alpha_i)
    is the turn tangent tan(arc_i / 2), so B is the dual's turn sum, and k
    and the right turns RT (the arcs past pi) are its turning rule's integers
    (:func:`~polyslope.geometry.turning_sum`), so the winding is (k - RT) / 2.
    """
    arcs = cyclic.arcs
    forward = arcs < math.pi
    tangents = turn_tangents(cyclic.phis)
    _, k, right_turns = turning_sum(cyclic.dual_slopes)
    return CyclicInvariants(
        orientations=np.where(forward, 1, -1),
        half_angles=np.minimum(arcs, TWO_PI - arcs) / 2.0,
        positive_edges=int(np.count_nonzero(forward)),
        dual_half_turns=k,
        winding=(k - right_turns) // 2,
        bifurcation_sum=float(tangents.sum()),
        tangent_scale=float(np.abs(tangents).sum()),
    )


def within_bifurcation_band(value: float, scale: float, tol: Tolerances) -> bool:
    """The bifurcation band: |value| < max(tol.bifurcation, B_RESOLUTION) * scale."""
    return abs(value) < max(tol.bifurcation, B_RESOLUTION) * scale


def bifurcation_test(inv: CyclicInvariants, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether B vanishes within the bifurcation band, measured in sum|tan alpha|."""
    return within_bifurcation_band(inv.bifurcation_sum, inv.tangent_scale, tol)


def dual_polygon(cyclic: CyclicPolygon, tol: Tolerances = DEFAULT_TOL) -> DualPolygon:
    """Polygon of the tangent lines at the vertices, circle kept on the left,
    about the center, and about the origin, where its perimeter keeps short
    edges' digits: one stack, in which a fold of ``cyclic`` is a zero edge
    of its dual.  Coordinates too coarse for it,
    or out of float range, raise InputSchemaError."""
    unresolved = "the coordinates cannot resolve the polygon at this radius and center"
    # Coordinates near the center round by eps |center|, which turns an edge
    # of length R by up to that over R.
    blur = float(EPS * np.abs(cyclic.center).max())
    if blur > tol.parallel * cyclic.radius:
        raise InputSchemaError(
            f"{unresolved} (rounding of {blur!r} at the center exceeds "
            f"{tol.parallel!r} times the radius)"
        )
    slopes = cyclic.dual_slopes
    with np.errstate(over="raise"):
        try:
            centers, radii = (cyclic.center, (0.0, 0.0)), (cyclic.radius, cyclic.radius)
            duals = tangential_polygons(slopes.angles, centers, radii)
            perimeter = signed_perimeters(duals[1], slopes.angles, tol)
        except FloatingPointError as exc:
            raise InputSchemaError(f"the dual polygon overflows the float range ({exc})") from exc
        except SlopeMismatch as exc:
            # Built from exact slopes, each edge allowed the roundoff of its own
            # scale, an edge leaves its slope only where, as at a subnormal
            # radius, the coordinates are too coarse.
            raise InputSchemaError(f"{unresolved} ({exc})") from exc
    return DualPolygon(vertices=duals[0], slopes=slopes, signed_perimeter=float(perimeter))


# ---------------------------------------------------------------------------
# Edge-direction chart on the space of polygons with fixed edge lengths.
# ---------------------------------------------------------------------------


def _area_residual(w: np.ndarray, basis: np.ndarray) -> float:
    """Norm on ``basis`` of the gradient, in theta_2, ..., theta_n, of the area
    1/2 sum_{j<k} cross(w_j, w_k) of the edge vectors w: its entry k is
    1/2 w_k . (sum_{j<k} w_j - sum_{j>k} w_j), from one cumulative sum."""
    ahead = np.cumsum(w, axis=0)
    projected = (w * (ahead - 0.5 * (w + ahead[-1]))).sum(axis=1)[1:] @ basis
    return math.sqrt(projected @ projected)


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
    scale = float(lengths.sum()) + float(np.abs(polygon.vertices).max())
    if not float(np.abs(actual - lengths).max()) <= 64.0 * EPS * scale:
        raise LengthMismatch("vertices do not realize the prescribed edge lengths")
    thetas = polygon.edge_angles
    w = lengths[:, None] * np.column_stack([np.cos(thetas), np.sin(thetas)])
    return _area_residual(w, closure_basis(w[1:].T))


def area_morse_index_numeric(cyclic: CyclicPolygon) -> int:
    """Morse index of the area at the cyclic configuration, by eigenvalue count.

    Projects the Lagrangian L = H_area - lambda . H_closure in the free
    angles theta_2, ..., theta_n (the first is frozen) onto the null space of
    the closure Jacobian, :func:`~polyslope.geometry.closure_basis` of the
    edge vectors, and counts its negative eigenvalues.  The area is the
    polygon's own, 1/2 sum_{j<k} cross(w_j, w_k), and L is assembled in
    place: off its diagonal, d^2 A / d theta_j d theta_k = 1/2 cross(w_j,
    w_k) sign(k - j) (the shared :func:`~polyslope.geometry.half_signs`
    table).  On a circle about c the area gradient is -w_k . (v_1 - c) =
    lambda . J w_k, so the closure multiplier is lambda = -J (v_1 - c) in
    closed form, and with d^2 w_k / d theta_k^2 = -w_k the diagonal comes to
    cross(v_{k+1} - c, v_k - c) = -R^2 sin(arc_k): no multiplier is solved
    for.  An eigenvalue within the roundoff bound 500 * n * eps * max|L| of
    zero raises DegenerateCritical (the bifurcation signature).  The bound
    is relative to L, not to the projected matrix, which is 1 x 1 at n = 4.
    Its constant is measured on two seeded samples of random polygons, 60
    per n for n 4..9: at bifurcation roots bisected to adjacent floats,
    min|eigenvalue| was at most 20 n eps max|L|; with 1e-9 <= |B| /
    sum|tan alpha| <= 1e-7, at least 6.2e3 n eps max|L|.  The constant sits
    25 and 12 times from them.

    The index depends on the vertex angles alone, so the polygon is rebuilt
    on the unit circle about the origin: the edge lengths stay of order one
    whatever the radius, and their squares cannot overflow.  Its vertex
    angles are those of ``cyclic``, whose constructor has kept them apart,
    so its edges are the differences of its vertices, as :class:`PolygonChain`
    reads them, without that class's check.
    """
    vertices = np.array([np.cos(cyclic.phis), np.sin(cyclic.phis)]).T
    ahead = _cycled(vertices)
    w = ahead - vertices
    basis = closure_basis(w[1:].T)
    residual = _area_residual(w, basis)
    scale = max(1.0, float(np.hypot(w[:, 0], w[:, 1]).sum()) ** 2)
    if residual > 1e-8 * scale:
        raise NotCritical(f"cyclic polygon fails the criticality test ({residual!r})")
    if basis.shape[1] == 0:
        return 0  # a triangle is rigid: the area has no direction to move in
    x, y = w[1:, 0], w[1:, 1]
    lagrangian = (x[:, None] * y - y[:, None] * x) * half_signs(cyclic.n - 1)
    lagrangian.flat[:: cyclic.n] = ahead[1:, 0] * vertices[1:, 1] - ahead[1:, 1] * vertices[1:, 0]
    eigenvalues = np.linalg.eigvalsh(basis.T @ lagrangian @ basis)
    bound = 500.0 * cyclic.n * EPS * float(np.abs(lagrangian).max())
    if (np.abs(eigenvalues) <= bound).any():
        raise DegenerateCritical(f"area Hessian eigenvalue within roundoff bound {bound!r}")
    return int(np.count_nonzero(eigenvalues < 0))


def area_morse_index_formula(inv: CyclicInvariants, tol: Tolerances = DEFAULT_TOL) -> int:
    """Morse index of the area by duality, n - 3 - mu_dual; Bifurcating on
    the bifurcation locus (:func:`bifurcation_test`).  The dual polygon, of
    inradius R > 0, is the critical point of r > 0 of its own slopes, whose
    sum p has the sign of its perimeter 2RB, so mu_dual = k - 1 - [B > 0]
    (:func:`~polyslope.tangential.index_pair`), with no chart: parallel dual
    lines, as the square's, have one.  The dual turns right at the n - e
    arcs past pi, e the positive edges, and w = (k - n + e) / 2, so the index
    n - 3 - mu_dual = n - 2 - k + [B > 0] is e - 1 - 2w - [B <= 0].
    """
    if bifurcation_test(inv, tol):
        raise Bifurcating("index undefined on the bifurcation locus")
    n = len(inv.orientations)
    return n - 3 - int(index_pair(n, inv.dual_half_turns, inv.bifurcation_sum)[0])


def duality_index_check(
    cyclic: CyclicPolygon, tol: Tolerances = DEFAULT_TOL
) -> DualityReport | None:
    """The area index by duality (:func:`area_morse_index_formula`), checked
    by the numeric index, or None on the bifurcation locus
    (:func:`bifurcation_test`), where the area Hessian is degenerate.

    The one place that computes the cyclic indices, from the polygon's
    :attr:`CyclicPolygon.invariants`, whose turn data are the dual slopes';
    reports and sweeps read its result.  The numeric Lagrangian index is the
    one independent check of the formula, as the edge-space inertia is of
    the slope side's.
    """
    # The test goes first: on the bifurcation locus the numeric route would
    # only see a degenerate Hessian.
    try:
        formula = area_morse_index_formula(cyclic.invariants, tol)
    except Bifurcating:
        return None
    numeric = area_morse_index_numeric(cyclic)
    return DualityReport(numeric, formula, cyclic.n - 3 - formula, numeric == formula)
