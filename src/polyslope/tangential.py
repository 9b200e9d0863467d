"""Critical points of the signed perimeter and their Morse indices.

On the unit-area slice of the polygon space the perimeter has either no
critical points (when the unit perimeters sum to zero, the "exceptional"
case) or exactly two, both tangential polygons: all decomposition radii equal
a common signed inradius r with r**2 = 2 / |sum p_i|.  The Hessian in the
constrained radii chart has the closed form

    H_jj = -(p_j / (r p_1)) (p_1 + p_j),   H_jk = -p_j p_k / (r p_1),

indexed by the free radii j, k = 2..n-2.  So are the vertices, the perimeter
r sum p_i, the area sign(sum p_i) and the winding number, with the radii
reconstruction :func:`polygon_from_radii` as their oracle in tests and
sweeps.  The Morse index is produced two independent ways: exactly, from
the signs of the p_i (inertia of the Hessian's bordered matrix), and by the
combinatorial turn/winding formula.  On the unit-area slice r_1 is a closed
form in the free radii, so the gradient and the Hessian there are checked
exactly to rounding, by the complex step and by hyper-dual numbers.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotCritical
from .geometry import PolygonChain, SlopeSystem, left_normal, tangential_polygon
from .slope_space import RadiiChart, build_chart
from .tolerances import DEFAULT_TOL, Tolerances


@dataclass(frozen=True)
class ExceptionalSpace:
    """Marker result: the tangential polygon has zero area, no critical points."""

    chart: RadiiChart

    @property
    def perimeter_sum(self) -> float:
        return self.chart.perimeter_sum


@dataclass(frozen=True, eq=False)
class TangentialCritical:
    """A tangential critical point of the perimeter, every field in closed form.

    ``polygon`` and ``hessian`` are computed on first read and then kept, so
    a caller that needs only the index or the perimeter builds neither.
    The winding number and turn counts are the chart's, shared by both
    points.
    """

    chart: RadiiChart
    inradius: float
    incenter: np.ndarray
    perimeter: float
    area: float

    @property
    def n(self) -> int:
        return self.chart.n

    @functools.cached_property
    def polygon(self) -> PolygonChain:
        return tangential_polygon(self.chart.system.angles, self.incenter, self.inradius)

    @functools.cached_property
    def hessian(self) -> np.ndarray:
        return hessian_formula(self.chart.unit_perimeters, self.inradius)


@dataclass(frozen=True, eq=False)
class IndexReport:
    """Morse index of a tangential point, computed two independent ways.

    ``index_eigen`` is the number of negative Hessian eigenvalues, counted
    exactly from the signs of the unit perimeters (see
    :func:`morse_index_eigen`); ``index_formula`` is the turn/winding
    formula value.  ``eigenvalues`` are the floating-point eigenvalues of
    the Hessian, reported for inspection; they decide nothing.
    """

    index_eigen: int
    index_formula: int
    eigenvalues: np.ndarray
    agreement: bool


def hessian_formula(unit_perimeters: np.ndarray, inradius: float) -> np.ndarray:
    """Closed-form perimeter Hessian in the free radii (r_2, ..., r_{n-2})."""
    p0 = float(unit_perimeters[0])
    tail = np.asarray(unit_perimeters[1:], dtype=float)
    return -(np.outer(tail, tail) / p0 + np.diag(tail)) / inradius


def exceptional_mask(unit_perimeters, perimeter_sum, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Whether |sum p| <= tol.exceptional * sum|p|, along the last axis of a
    stack of unit perimeters: the systems whose tangential polygons have
    zero area and whose perimeter has no critical points."""
    scale = np.sum(np.abs(unit_perimeters), axis=-1)
    return np.abs(perimeter_sum) <= tol.exceptional * scale


def exceptional(chart: RadiiChart, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the slope system yields an exceptional space (zero-area tangential)."""
    return bool(exceptional_mask(chart.unit_perimeters, chart.perimeter_sum, tol))


def tangential_critical_points(
    source: SlopeSystem | RadiiChart,
    tol: Tolerances = DEFAULT_TOL,
) -> ExceptionalSpace | tuple[TangentialCritical, TangentialCritical]:
    """The two tangential critical points, or the exceptional marker.

    The points are mutual point reflections: the inscribed circle of one has
    signed radius +r and the other -r, with r = sqrt(2 / |sum p_i|).  Both
    have area sign equal to the sign of sum p_i, and the winding number of
    both about their incenter is the turning number :attr:`RadiiChart.winding`.
    A slope system is charted first.
    """
    chart = source if isinstance(source, RadiiChart) else build_chart(source, tol)
    if exceptional(chart, tol):
        return ExceptionalSpace(chart=chart)
    magnitude = math.sqrt(2.0 / abs(chart.perimeter_sum))
    first_normal = left_normal(chart.system.angles[0])
    # Canonical representative: the common circle center sits at signed
    # distance r from the first edge line, above the origin.
    return tuple(
        TangentialCritical(
            chart=chart,
            inradius=inradius,
            incenter=inradius * first_normal,
            perimeter=inradius * chart.perimeter_sum,
            area=math.copysign(1.0, chart.perimeter_sum),
        )
        for inradius in (magnitude, -magnitude)
    )


def hessian_det_identity(point: TangentialCritical) -> tuple[float, float]:
    """Both sides of the determinant identity for the perimeter Hessian.

    r**(n-3) det H equals (-p_2 Pi / p_1) * prod_{i>=3} (-p_i); requires
    n >= 4 so the Hessian is nonempty.  Returns (lhs, rhs) without comparing
    them: the caller decides how close the two sides must be.
    """
    n = point.n
    if n < 4:
        raise ValueError("determinant identity needs n >= 4")
    p = point.chart.unit_perimeters
    lhs = point.inradius ** (n - 3) * float(np.linalg.det(point.hessian))
    rhs = (-p[1] * point.chart.perimeter_sum / p[0]) * float(np.prod(-p[2:]))
    return lhs, rhs


def morse_index_formula(point: TangentialCritical) -> int:
    """Morse index from turn counts, winding and perimeter sign alone."""
    chart = point.chart
    perimeter_positive = 1 if point.perimeter > 0 else 0
    if point.inradius > 0:
        return chart.right_turns - 1 + 2 * chart.winding - perimeter_positive
    return chart.left_turns - 1 - 2 * chart.winding - perimeter_positive


def sign_count_index(unit_perimeters: np.ndarray, perimeter_sum, inradius: float):
    """Negative eigenvalues of the Hessian at the critical point of signed
    inradius ``inradius``, decided by signs alone, along the last axis of a
    stack of unit perimeters.

    With t = (p_2, ..., p_{n-2}) and D = diag(t) the Hessian is
    H = -(D + t t^T / p_1) / r.  The bordered matrix [[-p_1, t^T], [t, D]]
    has the Schur complements D + t t^T / p_1 (of -p_1) and -sum p (of D),
    so inertia additivity (Haynsworth, 1968) counts

        neg(D + t t^T / p_1) = #{j >= 2 : p_j < 0} + [sum p > 0] - [p_1 > 0].

    H has that many negative eigenvalues at r < 0 and n - 3 minus that many
    at r > 0 (Sylvester's law of inertia); it is singular only where
    sum p = 0, which has no critical points.  The count is exact, so no
    eigenvalue threshold decides it.
    """
    p = unit_perimeters
    negatives = (p[..., 1:] < 0).sum(axis=-1) + (perimeter_sum > 0) - (p[..., 0] > 0)
    return negatives if inradius < 0 else p.shape[-1] - 1 - negatives


def morse_index_sign_count(chart: RadiiChart, inradius: float) -> int:
    """:func:`sign_count_index` of the chart's unit perimeters."""
    return int(sign_count_index(chart.unit_perimeters, chart.perimeter_sum, inradius))


def morse_index_eigen(point: TangentialCritical) -> IndexReport:
    """Morse index from the inertia of the Hessian (see
    :func:`morse_index_sign_count`), with the turn/winding formula as its
    cross-check and the Hessian's eigenvalues for inspection."""
    index = morse_index_sign_count(point.chart, point.inradius)
    formula = morse_index_formula(point)
    return IndexReport(
        index_eigen=index,
        index_formula=formula,
        eigenvalues=np.linalg.eigvalsh(point.hessian),
        agreement=index == formula,
    )


# ---------------------------------------------------------------------------
# Constrained chart: free radii x = (r_2, ..., r_{n-2}), with r_1 recovered in
# closed form from the unit-area constraint.  Exact derivatives of the
# perimeter there check the closed-form Hessian and the vanishing gradient.
# ---------------------------------------------------------------------------


def well_conditioned_chart(system: SlopeSystem, tol: Tolerances = DEFAULT_TOL) -> RadiiChart:
    """The chart of ``system`` in its well-conditioned relabeling.

    Same as ``build_chart(system, tol).well_conditioned``; callers that
    already hold a chart read its :attr:`RadiiChart.well_conditioned`, which
    is built once per chart.
    """
    return build_chart(system, tol).well_conditioned


class _HyperDual:
    """Arrays of hyper-dual numbers a + b e1 + c e2 + d e1e2, e1**2 = e2**2 = 0.

    The e1e2 part of f(x + e1 u + e2 v) is the second derivative of f along
    u and v, exact to rounding (Fike and Alonso, AIAA 2011-886).  Only the
    arithmetic of :func:`constrained_perimeter` is defined.
    """

    def __init__(self, *parts):
        self.parts = parts

    def __add__(self, other):
        other = other.parts if isinstance(other, _HyperDual) else (other, 0.0, 0.0, 0.0)
        return _HyperDual(*(x + y for x, y in zip(self.parts, other)))

    def __mul__(self, other):
        if not isinstance(other, _HyperDual):
            return _HyperDual(*(x * other for x in self.parts))
        (a, b, c, d), (e, f, g, h) = self.parts, other.parts
        return _HyperDual(a * e, a * f + b * e, a * g + c * e, a * h + b * g + c * f + d * e)

    def sum(self, axis):
        return _HyperDual(*(x.sum(axis=axis) for x in self.parts))

    def sqrt(self):
        a, b, c, d = self.parts
        root = np.sqrt(a)
        half = 0.5 / root
        return _HyperDual(root, b * half, c * half, (d - b * c / (2.0 * a)) * half)


def constrained_perimeter(chart: RadiiChart, free_radii, target_area: float, branch: float):
    """Perimeter p_1 r_1 + sum_{j>=2} p_j x_j at the free radii x = (r_2, ..., r_{n-2}).

    r_1 = sign(branch) sqrt((2 A - sum_{j>=2} p_j x_j**2) / p_1) solves the
    area law 0.5 sum p_i r_i**2 = A in closed form; the square root is the
    one non-polynomial step.  ``free_radii`` is one point or a (K, m) stack,
    real, complex or hyper-dual, with one result per point.  A negative
    radicand leaves no real r_1 and raises NotCritical.
    """
    p = chart.unit_perimeters
    x = free_radii if isinstance(free_radii, _HyperDual) else np.asarray(free_radii)
    # Each product keeps x on the left, where a hyper-dual stack defines it.
    radicand = (x * x * p[1:]).sum(axis=-1) * (-1.0 / p[0]) + 2.0 * target_area / p[0]
    hyperdual = isinstance(radicand, _HyperDual)
    value = np.real(radicand.parts[0] if hyperdual else radicand)
    if np.any(value < 0):
        worst = float(np.min(value))
        raise NotCritical(f"no real r_1 gives area {target_area!r}: radicand {worst!r}")
    root = radicand.sqrt() if hyperdual else np.sqrt(radicand)
    return root * (p[0] * math.copysign(1.0, branch)) + (x * p[1:]).sum(axis=-1)


def _roundoff_scale(point: TangentialCritical) -> float:
    """eps sum|p|, sum|p| the larger in the point's chart and the
    well-conditioned one: the inradius carries the roundoff of the first,
    the derivatives that of the second."""
    charts = (point.chart, point.chart.well_conditioned)
    return float(np.finfo(float).eps) * max(
        float(np.sum(np.abs(c.unit_perimeters))) for c in charts
    )


COMPLEX_STEP = 1e-200


def critical_gradient_norm(point: TangentialCritical) -> tuple[float, float]:
    """Complex-step gradient norm of the perimeter at a critical point, and its bound.

    In the well-conditioned chart, row j of one complex stack gives
    Im P(x + i h e_j) / h, h = ``COMPLEX_STEP``: the j-th partial derivative,
    exact to rounding, with no difference to cancel (Squire and Trapp, SIAM
    Review 40, 1998).  The norm at a tangential point is roundoff; in units
    of :func:`_roundoff_scale` it reached 14 on sweep seeds 0..399, 7.1 on the
    fuzz set and 2.6 next to the exceptional locus.  The bound is 256 units.
    """
    chart = point.chart.well_conditioned
    rows = point.inradius + 1j * COMPLEX_STEP * np.eye(point.n - 3)
    target = math.copysign(1.0, chart.perimeter_sum)
    grad = constrained_perimeter(chart, rows, target, point.inradius).imag / COMPLEX_STEP
    return float(np.linalg.norm(grad)), 256.0 * _roundoff_scale(point)


def hessian_fd_comparison(point: TangentialCritical) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form and hyper-dual Hessians in the well-conditioned chart.

    The second matrix is hyper-dual, not a finite difference as the name
    says: row (j, k), j <= k, of one hyper-dual stack evaluates the
    perimeter at x + e1 e_j + e2 e_k, whose e1e2 part is H_jk.  It never
    reads :func:`hessian_formula`, so it stays an independent oracle.
    """
    chart = point.chart.well_conditioned
    m = point.n - 3
    j, k = np.triu_indices(m)
    units = np.eye(m)
    rows = _HyperDual(np.full((len(j), m), point.inradius), units[j], units[k], 0.0 * units[j])
    target = math.copysign(1.0, chart.perimeter_sum)
    exact = np.empty((m, m))
    exact[j, k] = exact[k, j] = constrained_perimeter(chart, rows, target, point.inradius).parts[3]
    return hessian_formula(chart.unit_perimeters, point.inradius), exact


def hessian_error(point: TangentialCritical) -> tuple[float, float]:
    """Largest entry of |hyper-dual - closed-form Hessian|, and its bound; n >= 4.

    The radicand of r_1 cancels terms sum|p| / |sum p| times its size.  In
    units of max|H| / |sum p| times :func:`_roundoff_scale` the error reached
    28 on sweep seeds 0..399, 19 on the fuzz set and 4.2 next to the
    exceptional locus.  The bound is 512 units."""
    closed, exact = hessian_fd_comparison(point)
    scale = float(np.max(np.abs(closed))) / abs(point.chart.perimeter_sum)
    return float(np.max(np.abs(exact - closed))), 512.0 * scale * _roundoff_scale(point)
