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
exactly to rounding, by the complex step and by hyper-dual numbers.  The two
points share their chart and differ only in the sign of r, so each check
evaluates both in one stack (:func:`index_reports`,
:func:`hessian_det_identities`, :func:`critical_gradient_norms`,
:func:`hessian_errors`); a caller with one point passes a stack of one.
Whether a chart is exceptional is decided at the tolerances it was built at,
:attr:`RadiiChart.tol`, which its critical points read.
"""

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NotCritical
from .geometry import EPS, PolygonChain, SlopeSystem, left_normal, tangential_polygon
from .slope_space import RadiiChart, build_chart
from .tolerances import DEFAULT_TOL, Tolerances


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
    :func:`index_reports`); ``index_formula`` is the turn/winding
    formula value.  ``eigenvalues`` are the floating-point eigenvalues of
    the Hessian, reported for inspection; they decide nothing.
    """

    index_eigen: int
    index_formula: int
    eigenvalues: np.ndarray
    agreement: bool


def hessian_formula(unit_perimeters: np.ndarray, inradius) -> np.ndarray:
    """Closed-form perimeter Hessian in the free radii (r_2, ..., r_{n-2}).

    ``inradius`` may be a (K,) stack of radii: the result is then the
    (K, m, m) stack of their Hessians, each equal to that of its radius alone.
    """
    p0 = float(unit_perimeters[0])
    tail = np.asarray(unit_perimeters[1:], dtype=float)
    return -(np.outer(tail, tail) / p0 + np.diag(tail)) / np.asarray(inradius)[..., None, None]


def exceptional_mask(unit_perimeters, perimeter_sum, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Whether |sum p| <= tol.exceptional * sum|p|, along the last axis of a
    stack of unit perimeters: the systems whose tangential polygons have
    zero area and whose perimeter has no critical points."""
    scale = np.sum(np.abs(unit_perimeters), axis=-1)
    return np.abs(perimeter_sum) <= tol.exceptional * scale


def tangential_critical_points(
    source: SlopeSystem | RadiiChart,
) -> tuple[()] | tuple[TangentialCritical, TangentialCritical]:
    """The two tangential critical points, (r > 0, r < 0), or none on the
    exceptional locus (:func:`exceptional_mask` at the chart's tolerances).

    The points are mutual point reflections: the inscribed circle of one has
    signed radius +r and the other -r, with r = sqrt(2 / |sum p_i|).  Both
    have area sign equal to the sign of sum p_i, and the winding number of
    both about their incenter is the turning number :attr:`RadiiChart.winding`.
    A slope system is charted first, at ``DEFAULT_TOL``.
    """
    # The SlopeSystem branch stays while perfbench/test_perfbench.py passes one.
    chart = source if isinstance(source, RadiiChart) else build_chart(source)
    if exceptional_mask(chart.unit_perimeters, chart.perimeter_sum, chart.tol):
        return ()
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


def _shared_chart(points: Sequence[TangentialCritical]) -> RadiiChart:
    """The chart of every point in ``points``, which a stack evaluates at once."""
    chart = points[0].chart
    if any(point.chart is not chart for point in points):
        raise ValueError("stacked critical points must share one chart")
    return chart


def hessian_det_identities(points: Sequence[TangentialCritical]) -> list[tuple[float, float]]:
    """Both sides of the determinant identity for the perimeter Hessian, one
    pair per critical point of one chart.

    r**(n-3) det H equals (-p_2 Pi / p_1) * prod_{i>=3} (-p_i); requires
    n >= 4 so the Hessian is nonempty.  The points' Hessians are one stack
    with one determinant call.  Returns (lhs, rhs) without comparing them:
    the caller decides how close the two sides must be.
    """
    chart = _shared_chart(points)
    n = chart.n
    if n < 4:
        raise ValueError("determinant identity needs n >= 4")
    p = chart.unit_perimeters
    radii = [point.inradius for point in points]
    dets = np.linalg.det(hessian_formula(p, np.array(radii))).tolist()
    rhs = (-p[1] * chart.perimeter_sum / p[0]) * float(np.prod(-p[2:]))
    return [(inradius ** (n - 3) * det, rhs) for inradius, det in zip(radii, dets)]


def hessian_det_identity(point: TangentialCritical) -> tuple[float, float]:
    """:func:`hessian_det_identities` of one point."""
    return hessian_det_identities((point,))[0]


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


def index_reports(points: Sequence[TangentialCritical]) -> list[IndexReport]:
    """Morse index of each critical point of one chart from the inertia of
    its Hessian (see :func:`sign_count_index`), with the turn/winding formula
    as its cross-check and the Hessian's eigenvalues for inspection.  The
    points' Hessians are one stack with one eigenvalue call."""
    chart = _shared_chart(points)
    radii = np.array([point.inradius for point in points])
    eigenvalues = np.linalg.eigvalsh(hessian_formula(chart.unit_perimeters, radii))
    reports = []
    for point, values in zip(points, eigenvalues):
        index = int(sign_count_index(chart.unit_perimeters, chart.perimeter_sum, point.inradius))
        formula = morse_index_formula(point)
        report = IndexReport(
            index_eigen=index, index_formula=formula, eigenvalues=values, agreement=index == formula
        )
        reports.append(report)
    return reports


def morse_index_eigen(point: TangentialCritical) -> IndexReport:
    """:func:`index_reports` of one point."""
    return index_reports((point,))[0]


# ---------------------------------------------------------------------------
# Constrained chart: free radii x = (r_2, ..., r_{n-2}), with r_1 recovered in
# closed form from the unit-area constraint.  Exact derivatives of the
# perimeter there check the closed-form Hessian and the vanishing gradient.
# ---------------------------------------------------------------------------


# Kept while perfbench/tracer.py traces it; no program path calls it.
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


def constrained_perimeter(chart: RadiiChart, free_radii, target_area: float, branch):
    """Perimeter p_1 r_1 + sum_{j>=2} p_j x_j at the free radii x = (r_2, ..., r_{n-2}).

    r_1 = sign(branch) sqrt((2 A - sum_{j>=2} p_j x_j**2) / p_1) solves the
    area law 0.5 sum p_i r_i**2 = A in closed form; the square root is the
    one non-polynomial step.  ``free_radii`` is one point or a (K, m) stack,
    real, complex or hyper-dual, with one result per point; ``branch`` is
    one number, or an array of one per point.  A negative radicand leaves
    no real r_1 and raises NotCritical.
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
    sign = np.copysign(1.0, branch)
    return root * (p[0] * sign) + (x * p[1:]).sum(axis=-1)


def _roundoff_scale(chart: RadiiChart) -> float:
    """eps sum|p|, sum|p| the larger in the points' chart and the
    well-conditioned one: the inradius carries the roundoff of the first,
    the derivatives that of the second."""
    charts = (chart, chart.well_conditioned)
    return EPS * max(float(np.sum(np.abs(c.unit_perimeters))) for c in charts)


COMPLEX_STEP = 1e-200


@functools.lru_cache(maxsize=None)
def _complex_steps(m: int) -> np.ndarray:
    """The (m, m) rows i h e_j, h = ``COMPLEX_STEP``, built once per size."""
    steps = 1j * COMPLEX_STEP * np.eye(m)
    steps.setflags(write=False)
    return steps


def critical_gradient_norms(points: Sequence[TangentialCritical]) -> list[tuple[float, float]]:
    """Complex-step gradient norm of the perimeter at critical points of one
    chart, and its bound, one pair per point.

    In the well-conditioned chart, row j of point k's block of one complex
    stack gives Im P(x_k + i h e_j) / h, h = ``COMPLEX_STEP``: the j-th
    partial derivative at x_k = (r_k, ..., r_k), exact to rounding, with no
    difference to cancel (Squire and Trapp, SIAM Review 40, 1998).  Each
    point reads only its own inradius, so both points of
    :func:`tangential_critical_points` are one stack.  The norm at a
    tangential point is roundoff; in units of :func:`_roundoff_scale` it
    reached 14 on sweep seeds 0..399, 7.1 on the fuzz set and 2.6 next to
    the exceptional locus.  The bound is 256 units.

    The gradient vanishes at x = (r, ..., r) for any p, so where the
    well-conditioned relabeling is the identity (319 of 1,378 fuzz systems)
    the oracle, reading the p that placed the points, sees no error in the
    chart constants, only its own rounding: at most 0.0046 of the bound
    there, 0.028 elsewhere.
    """
    chart = _shared_chart(points)
    conditioned = chart.well_conditioned
    m = chart.n - 3
    radii = np.array([point.inradius for point in points])
    rows = (radii[:, None, None] + _complex_steps(m)).reshape(len(radii) * m, m)
    target = math.copysign(1.0, conditioned.perimeter_sum)
    values = constrained_perimeter(conditioned, rows, target, np.repeat(radii, m))
    grads = values.imag.reshape(len(points), m) / COMPLEX_STEP
    bound = 256.0 * _roundoff_scale(chart)
    return [(math.sqrt(grad.dot(grad)), bound) for grad in grads]


def critical_gradient_norm(point: TangentialCritical) -> tuple[float, float]:
    """:func:`critical_gradient_norms` of one point."""
    return critical_gradient_norms((point,))[0]


def hyperdual_hessians(points: Sequence[TangentialCritical]) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form and hyper-dual Hessians in the well-conditioned chart, as
    two (K, m, m) stacks, one matrix per critical point of one chart.

    Row (j, k), j <= k, of each point's block of one hyper-dual stack
    evaluates the perimeter at x + e1 e_j + e2 e_k, whose e1e2 part is H_jk.
    It never reads :func:`hessian_formula`, so it stays an independent oracle.
    """
    chart = _shared_chart(points).well_conditioned
    m = chart.n - 3
    j, k = np.triu_indices(m)
    units = np.eye(m)
    radii = np.array([point.inradius for point in points])
    count = len(points)
    branches = np.repeat(radii, len(j))
    rows = _HyperDual(
        np.repeat(branches, m).reshape(len(branches), m),
        np.tile(units[j], (count, 1)),
        np.tile(units[k], (count, 1)),
        np.zeros((count * len(j), m)),
    )
    target = math.copysign(1.0, chart.perimeter_sum)
    values = constrained_perimeter(chart, rows, target, branches).parts[3]
    exact = np.empty((count, m, m))
    exact[:, j, k] = exact[:, k, j] = values.reshape(count, len(j))
    return hessian_formula(chart.unit_perimeters, radii), exact


def hessian_fd_comparison(point: TangentialCritical) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hyperdual_hessians` of one point: its two (m, m) Hessians."""
    closed, exact = hyperdual_hessians((point,))
    return closed[0], exact[0]


def hessian_errors(points: Sequence[TangentialCritical]) -> list[tuple[float, float]]:
    """Largest entry of |hyper-dual - closed-form Hessian|, and its bound, one
    pair per critical point of one chart; n >= 4.

    The radicand of r_1 cancels terms sum|p| / |sum p| times its size.  In
    units of max|H| / |sum p| times :func:`_roundoff_scale` the error reached
    28 on sweep seeds 0..399, 19 on the fuzz set and 4.2 next to the
    exceptional locus.  The bound is 512 units."""
    chart = _shared_chart(points)
    closed, exact = hyperdual_hessians(points)
    roundoff = _roundoff_scale(chart)
    errors = []
    for c, e in zip(closed, exact):
        scale = float(np.max(np.abs(c))) / abs(chart.perimeter_sum)
        errors.append((float(np.max(np.abs(e - c))), 512.0 * scale * roundoff))
    return errors
