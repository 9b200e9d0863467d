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
the closure condition is the constraint, Lagrange multipliers come from least
squares at the critical point, and the Hessian is projected onto an
orthonormal basis of the constraint null space.
"""

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
)
from .geometry import (
    TWO_PI,
    PolygonChain,
    SlopeSystem,
    tangential_polygon,
    winding_number,
)
from .tangential import (
    ExceptionalSpace,
    TangentialCritical,
    morse_index_eigen,
    tangential_critical_points,
)
from .tolerances import DEFAULT_TOL, Tolerances


@dataclass(frozen=True, eq=False)
class CyclicPolygon:
    """Polygon inscribed in a circle: center, radius, vertex angles (radians)."""

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
        phis = phis.copy()
        center.setflags(write=False)
        phis.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "phis", phis)
        arcs = (np.roll(phis, -1) - phis) % TWO_PI
        for i, arc in enumerate(arcs):
            if min(arc, TWO_PI - arc) < DEFAULT_TOL.parallel:
                raise CoincidentVertices(f"vertices {i} and {(i + 1) % len(phis)} coincide")
            if abs(arc - math.pi) <= 2.0 * DEFAULT_TOL.antipodal:
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
        return self.center + self.radius * np.column_stack(
            [np.cos(self.phis), np.sin(self.phis)]
        )

    @property
    def polygon(self) -> PolygonChain:
        return PolygonChain(self.vertices)


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
    """Tangential polygon cut out by the tangent lines at the cyclic vertices."""

    polygon: PolygonChain
    slopes: SlopeSystem
    center: np.ndarray
    inradius: float


@dataclass(frozen=True, eq=False)
class DualityReport:
    """Cross-check of the area index against the dual perimeter index."""

    bifurcation_sum: float
    dual: TangentialCritical
    mu_area_numeric: int
    mu_area_formula: int
    mu_dual_perimeter: int
    identity_holds: bool


def cyclic_invariants(cyclic: CyclicPolygon, tol: Tolerances | None = None) -> CyclicInvariants:
    """Orientation signs, half angles, edge count, winding and bifurcation sum.

    The winding number is accumulated from the signed arcs (arc if the edge
    is positively oriented, arc - 2*pi otherwise) and must come out integral;
    it coincides with the geometric winding number around the center.
    """
    tol = DEFAULT_TOL if tol is None else tol
    arcs = (np.roll(cyclic.phis, -1) - cyclic.phis) % TWO_PI
    orientations = np.where(arcs < math.pi, 1, -1)
    half_angles = np.minimum(arcs, TWO_PI - arcs) / 2.0
    signed_arcs = np.where(orientations > 0, arcs, arcs - TWO_PI)
    turns = float(np.sum(signed_arcs)) / TWO_PI
    winding = round(turns)
    if abs(turns - winding) > tol.turn_integral * max(1.0, abs(turns)):
        raise NotCritical(f"arc sum {turns!r} turns is not integral")
    return CyclicInvariants(
        orientations=orientations,
        half_angles=half_angles,
        positive_edges=int(np.count_nonzero(orientations > 0)),
        winding=int(winding),
        bifurcation_sum=float(np.sum(orientations * np.tan(half_angles))),
    )


def bifurcation_test(cyclic: CyclicPolygon, tol: Tolerances | None = None) -> bool:
    """Whether the signed tangent sum vanishes within tolerance."""
    tol = DEFAULT_TOL if tol is None else tol
    inv = cyclic_invariants(cyclic, tol)
    scale = float(np.sum(np.abs(np.tan(inv.half_angles))))
    return abs(inv.bifurcation_sum) < tol.bifurcation * scale


def dual_polygon(cyclic: CyclicPolygon) -> DualPolygon:
    """Polygon of tangent lines at the vertices, circle kept on the left.

    The tangent at vertex angle phi runs at direction phi + pi/2, so the dual
    is :func:`tangential_polygon` of those directions about the center with
    signed inradius +R.  Consecutive tangents of a valid cyclic polygon
    always meet (non-antipodal consecutive vertices).
    """
    angles = (cyclic.phis + 0.5 * math.pi) % TWO_PI
    return DualPolygon(
        polygon=tangential_polygon(angles, cyclic.center, cyclic.radius),
        slopes=SlopeSystem.from_angles(angles),
        center=cyclic.center,
        inradius=cyclic.radius,
    )


# ---------------------------------------------------------------------------
# Edge-direction chart on the space of polygons with fixed edge lengths.
# ---------------------------------------------------------------------------


def _edge_vectors(lengths: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    return lengths[:, None] * np.column_stack([np.cos(thetas), np.sin(thetas)])


def _rot90(vectors: np.ndarray) -> np.ndarray:
    return np.column_stack([-vectors[:, 1], vectors[:, 0]])


def closure_residual(lengths: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Vector sum of the edges; zero exactly on closed polygons."""
    return _edge_vectors(lengths, thetas).sum(axis=0)


def closure_jacobian(lengths: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """2 x n Jacobian of the closure residual in the angle chart."""
    return _rot90(_edge_vectors(lengths, thetas)).T


def chain_area(lengths: np.ndarray, thetas: np.ndarray) -> float:
    """Shoelace area of the chain started at the origin and closed by a chord.

    Agrees with the polygon area whenever the closure residual vanishes and
    extends it smoothly off the constraint surface (the last edge drops out).
    """
    w = _edge_vectors(lengths, thetas)
    verts = np.vstack([np.zeros(2), np.cumsum(w[:-1], axis=0)])
    nxt = np.roll(verts, -1, axis=0)
    return 0.5 * float(np.sum(verts[:, 0] * nxt[:, 1] - nxt[:, 0] * verts[:, 1]))


def chain_area_gradient(lengths: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Gradient of the chord-closed area with respect to all edge angles."""
    n = len(thetas)
    w = _edge_vectors(lengths, thetas)
    wp = _rot90(w)
    grad = np.zeros(n)
    prefix = np.vstack([np.zeros(2), np.cumsum(w[:-1], axis=0)])  # sum of w_i, i < j
    total_head = w[:-1].sum(axis=0)
    for j in range(n - 1):
        after = total_head - prefix[j] - w[j]  # sum of w_k, j < k <= n-2
        diff = prefix[j] - after
        grad[j] = 0.5 * (diff[0] * wp[j, 1] - diff[1] * wp[j, 0])
    return grad


def chain_area_hessian(lengths: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Hessian of the chord-closed area with respect to all edge angles."""
    n = len(thetas)
    w = _edge_vectors(lengths, thetas)
    hess = np.zeros((n, n))
    prefix = np.vstack([np.zeros(2), np.cumsum(w[:-1], axis=0)])
    total_head = w[:-1].sum(axis=0)
    for j in range(n - 1):
        after = total_head - prefix[j] - w[j]
        diff = prefix[j] - after
        hess[j, j] = -0.5 * (diff[0] * w[j, 1] - diff[1] * w[j, 0])
        for k in range(j + 1, n - 1):
            # cross(w_j', w_k') equals cross(w_j, w_k)
            value = 0.5 * (w[j, 0] * w[k, 1] - w[j, 1] * w[k, 0])
            hess[j, k] = value
            hess[k, j] = value
    return hess


def _tangent_frame(lengths: np.ndarray, thetas: np.ndarray):
    """Constraint Jacobian restricted to free angles and its null-space basis.

    The basis is the trailing right singular vectors, with the rank cut at
    max(s) * eps * max(shape).
    """
    jac = closure_jacobian(lengths, thetas)[:, 1:]
    _, s, vh = np.linalg.svd(jac)
    cutoff = s[0] * np.finfo(float).eps * max(jac.shape)
    return jac, vh[np.count_nonzero(s > cutoff):].T


def _projected_gradient(lengths, thetas):
    grad = chain_area_gradient(lengths, thetas)[1:]
    _, basis = _tangent_frame(lengths, thetas)
    return basis.T @ grad


def area_criticality_residual(
    polygon: PolygonChain,
    lengths,
    tol: Tolerances | None = None,
) -> float:
    """Norm of the area gradient projected onto the closure tangent space.

    Vanishes exactly at cyclic configurations.  Raises LengthMismatch when
    the vertices do not realize the given lengths.
    """
    tol = DEFAULT_TOL if tol is None else tol
    lengths = np.asarray(lengths, dtype=float)
    actual = polygon.edge_lengths
    if lengths.shape != actual.shape:
        raise LengthMismatch("wrong number of edge lengths")
    scale = max(1.0, float(np.sum(lengths)))
    if float(np.max(np.abs(actual - lengths))) > tol.length_match * scale:
        raise LengthMismatch("vertices do not realize the prescribed edge lengths")
    thetas = polygon.edge_angles
    return float(np.linalg.norm(_projected_gradient(lengths, thetas)))


def area_morse_index_numeric(
    cyclic: CyclicPolygon,
    tol: Tolerances | None = None,
) -> int:
    """Morse index of the area at the cyclic configuration, by eigenvalue count.

    Builds the projected Hessian B^T (H_area - lambda . H_closure) B in the
    frozen-first-angle chart, with least-squares Lagrange multipliers, and
    counts negative eigenvalues outside the dead band.  An eigenvalue inside
    the band raises DegenerateCritical (the bifurcation signature).
    """
    tol = DEFAULT_TOL if tol is None else tol
    polygon = cyclic.polygon
    lengths = polygon.edge_lengths
    thetas = polygon.edge_angles
    scale = max(1.0, float(np.sum(lengths)) ** 2)
    residual = float(np.linalg.norm(_projected_gradient(lengths, thetas)))
    if residual > 1e-8 * scale:
        raise NotCritical(f"cyclic polygon fails the criticality test ({residual!r})")
    jac, basis = _tangent_frame(lengths, thetas)
    if basis.shape[1] == 0:
        return 0  # a triangle is rigid: the area has no direction to move in
    grad = chain_area_gradient(lengths, thetas)[1:]
    multipliers, *_ = np.linalg.lstsq(jac.T, grad, rcond=None)
    # The closure Hessian is diagonal: d^2 w_i / d theta_i^2 = -w_i.
    w = _edge_vectors(lengths, thetas)
    lagrangian = chain_area_hessian(lengths, thetas)[1:, 1:] + np.diag(
        (w[1:] @ multipliers)
    )
    projected = basis.T @ lagrangian @ basis
    eigenvalues = np.linalg.eigvalsh(projected)
    band = tol.area_band * float(np.max(np.abs(projected)))
    if np.any(np.abs(eigenvalues) <= band):
        raise DegenerateCritical(f"area Hessian eigenvalue inside dead band {band!r}")
    return int(np.count_nonzero(eigenvalues < -band))


def area_morse_index_formula(
    cyclic: CyclicPolygon,
    tol: Tolerances | None = None,
) -> int:
    """Morse index of the area from edge counts, winding, and the tangent sum."""
    tol = DEFAULT_TOL if tol is None else tol
    if bifurcation_test(cyclic, tol):
        raise Bifurcating("index undefined on the bifurcation locus")
    inv = cyclic_invariants(cyclic, tol)
    correction = 0 if inv.bifurcation_sum > 0 else 1
    return inv.positive_edges - 1 - 2 * inv.winding - correction


def duality_index_check(
    cyclic: CyclicPolygon,
    tol: Tolerances | None = None,
) -> DualityReport:
    """Area index versus dual perimeter index: mu_area = n - 3 - mu_dual.

    The dual polygon is tangential with positive inradius, hence (after the
    area normalization, which leaves the index unchanged) it is the positive
    critical point of the perimeter for its own slope system; its index is
    the exact sign count of :func:`morse_index_eigen`, cross-checked against
    the turn/winding formula.
    """
    tol = DEFAULT_TOL if tol is None else tol
    if bifurcation_test(cyclic, tol):
        raise Bifurcating("duality check undefined on the bifurcation locus")
    inv = cyclic_invariants(cyclic, tol)
    mu_numeric = area_morse_index_numeric(cyclic, tol)
    mu_formula = area_morse_index_formula(cyclic, tol)
    dual = dual_polygon(cyclic)
    points = tangential_critical_points(dual.slopes, tol)
    if isinstance(points, ExceptionalSpace):
        raise Bifurcating("dual slope system is exceptional")
    positive = points[0] if points[0].inradius > 0 else points[1]
    report = morse_index_eigen(positive)
    if not report.agreement:
        raise DegenerateCritical("dual index routes disagree")
    mu_dual = report.index_eigen
    n = cyclic.n
    return DualityReport(
        bifurcation_sum=inv.bifurcation_sum,
        dual=positive,
        mu_area_numeric=mu_numeric,
        mu_area_formula=mu_formula,
        mu_dual_perimeter=mu_dual,
        identity_holds=(mu_numeric == mu_formula == n - 3 - mu_dual),
    )


def cyclic_winding_check(cyclic: CyclicPolygon, tol: Tolerances | None = None) -> bool:
    """Arc-sum winding agrees with the geometric winding number around the center."""
    tol = DEFAULT_TOL if tol is None else tol
    inv = cyclic_invariants(cyclic, tol)
    return inv.winding == winding_number(cyclic.polygon, cyclic.center, tol)
