"""Critical points of the signed perimeter and their Morse indices.

On the unit-area slice of the polygon space the perimeter has either no
critical points (when the unit perimeters sum to zero, the "exceptional"
case) or exactly two, both tangential polygons: all decomposition radii equal
a common signed inradius r with r**2 = 2 / |sum p_i|.  The Hessian in the
constrained radii chart has the closed form

    H_jj = -(p_j / (r p_1)) (p_1 + p_j),   H_jk = -p_j p_k / (r p_1),

indexed by the free radii j, k = 2..n-2.  So are the vertices, edge i being
r t_i u_i (:func:`~polyslope.geometry.tangential_polygons`), the perimeter
r sum p_i, the area sign(sum p_i) and the winding number, with the radii
reconstruction :func:`polygon_from_radii` as their oracle in tests and
sweeps.  The points are checked in edge space, where a polygon is its
signed edge lengths l, closure U l = 0 is linear, the perimeter is sum l
and the area 1/2 l^T Q l (:func:`tangential_residual`, :func:`edge_hessians`).
The Morse index is one formula in n, k and the sign of sum p
(:func:`index_pair`), checked by the inertia of the area form on the
edge-space tangent at the reported vertices (:func:`index_reports`).  The
two points share their chart and differ only in the sign of r, so each
check evaluates both at once; a caller with one point passes a stack of
one.  Whether a chart is exceptional is decided at the tolerances it was
built at, :attr:`RadiiChart.tol`, which its points read.
"""

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotCritical
from .geometry import (
    EPS,
    PolygonChain,
    SlopeSystem,
    _cycled,
    closure_basis,
    edge_lengths_along,
    left_normal,
    line_vertices,
    tangential_polygons,
)
from .slope_space import RadiiChart, _radii_offsets, _unit_perimeters, build_chart
from .tolerances import DEFAULT_TOL, Tolerances


@dataclass(frozen=True, eq=False)
class TangentialCritical:
    """A tangential critical point of the perimeter, every field in closed form.

    ``vertices`` (a one-row :func:`~polyslope.geometry.tangential_polygons`),
    ``polygon`` (their :class:`PolygonChain`, a zero edge included)
    and ``hessian`` are computed on first read and then kept, so a caller
    that needs only the index or the perimeter builds none.
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
    def vertices(self) -> np.ndarray:
        return tangential_polygons(self.chart.system.angles, [self.incenter], [self.inradius])[0]

    @functools.cached_property
    def polygon(self) -> PolygonChain:
        return PolygonChain(self.vertices)

    @functools.cached_property
    def hessian(self) -> np.ndarray:
        return hessian_formula(self.chart.unit_perimeters, self.inradius)


@dataclass(frozen=True, eq=False)
class IndexReport:
    """Morse index of a tangential point: ``index_formula`` by
    :func:`index_pair`, ``index_eigen`` by the edge-space inertia at the
    reported vertices, and ``agreement`` of the two within roundoff (see
    :func:`index_reports`).  ``eigenvalues`` are the closed-form Hessian's,
    reported for inspection; they decide nothing."""

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


def index_pair(n, k, perimeter_sum):
    """(mu(r > 0), mu(r < 0)) = (k - 1 - [sum p > 0], n - k - 2 + [sum p > 0])
    for n slopes, k half turns and unit perimeter sum ``perimeter_sum``,
    each a scalar or a stack.  Proof: Q has signature (k - 1, n - k - 1) on
    ker U, and the point of inradius r has edges r t with 1/2 t^T Q t =
    sum p / 2, so -Q / r on the Q-orthogonal complement of t counts it.
    The point of positive perimeter has its component's sphere dimension as
    index, the other point its disc dimension (``topology_report``)."""
    positive = perimeter_sum > 0
    return k - 1 - positive, n - k - 2 + positive


INERTIA_ROUNDOFF = 500.0  # the edge-space inertia's, in n eps max|Q| / |r| (tolerances.py)


def edge_terms(chart: RadiiChart, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(l, Q l): the signed lengths l_i = (v_{i+1} - v_i) . u_i of the edges
    of the (n, 2) ``vertices`` along the chart's slopes, and their image
    under the chart's area form Q, which the edge-space checks share."""
    lengths = edge_lengths_along(vertices, chart.system.angles)
    return lengths, chart.area_form @ lengths


def _edge_space_form(chart: RadiiChart, normal: np.ndarray, inradius: float):
    """-Q / r on T = ker U ∩ (Q l)^perp, given Q l (:func:`edge_terms`) at
    the edges l of the point of inradius r, and b = INERTIA_ROUNDOFF n eps
    max|Q| / |r|.  T is B times the closure basis of (Q l)^T B, with B the
    chart's ``closure_space``; no p enters."""
    basis, form = chart.closure_space, chart.area_form
    tangent = basis @ closure_basis((normal @ basis)[None])
    bound = INERTIA_ROUNDOFF * chart.n * EPS * np.abs(form).max() / abs(inradius)
    return tangent.T @ form @ tangent / -inradius, bound


def index_reports(points: Sequence[TangentialCritical], vertices, edges=None) -> list[IndexReport]:
    """Morse index of each critical point of one chart by :func:`index_pair`,
    against the edge-space inertia at ``vertices``, the first point's polygon:
    how many eigenvalues of :func:`_edge_space_form` lie below -b, 0 and b.
    A point of the other sign has edges -l and reads n - 3 - count.  Within
    b an eigenvalue may take either sign, so the formula agrees when it is a
    count those signs allow.  One eigenvalue call reads that form and the
    points' Hessians as one stack.  ``edges`` is :func:`edge_terms` at
    ``vertices``, when the caller has it."""
    chart, first = _shared_chart(points), points[0].inradius
    _, normal = edge_terms(chart, vertices) if edges is None else edges
    form, bound = _edge_space_form(chart, normal, first)
    hessians = hessian_formula(chart.unit_perimeters, np.array([p.inradius for p in points]))
    inertia, *eigenvalues = np.linalg.eigvalsh(np.concatenate((form[None], hessians)))
    counts = np.searchsorted(inertia, (-bound, 0.0, bound))
    formulas = index_pair(chart.n, chart.half_turns, chart.perimeter_sum)
    reports = []
    for point, values in zip(points, eigenvalues):
        same = (point.inradius > 0) == (first > 0)
        fewest, index, most = (counts if same else chart.n - 3 - counts[::-1]).tolist()
        formula = formulas[0] if point.inradius > 0 else formulas[1]
        reports.append(IndexReport(index, formula, values, fewest <= formula <= most))
    return reports


def morse_index_eigen(point: TangentialCritical) -> IndexReport:
    """:func:`index_reports` of one point, at its own vertices."""
    return index_reports((point,), point.vertices)[0]


# Roundoff bounds of the edge-space checks, in eps times their scales
# (worst cases in tolerances.py).
RESIDUAL_ROUNDOFF = 64.0
AREA_ROUNDOFF = 16.0


def tangential_residual(chart: RadiiChart, vertices: np.ndarray, inradius: float, edges=None):
    """(gradient_norm, gradient_bound, area_error, area_bound) of the (n, 2)
    ``vertices`` reported as the critical point of inradius r in ``chart``;
    ``edges`` is :func:`edge_terms` at ``vertices``, when the caller has it.

    With l_i = (v_{i+1} - v_i) . u_i, the Lagrangian gradient g = 1 - Q l / r
    vanishes on ker U; the chart's orthonormal basis of ker U,
    :attr:`~polyslope.slope_space.RadiiChart.closure_space`, projects it
    there without squaring cond(U).  Its bound is c n eps (1 + sum_ij |Q_ij|
    (|l_j| + max|v|) / |r|), c = 64.  The area error is |shoelace(v) -
    sign(sum p)|, within c' eps (1/2 sum(|x_i y_{i+1}| + |x_{i+1} y_i|) +
    max|v| sum|l| + n sum|p| / |sum p|), c' = 16.
    Any p makes every r critical, so only the area sees a wrong sum p.  The
    other point has edges -l and inradius -r: the same numbers serve it.
    """
    n, form = chart.n, chart.area_form
    lengths, normal = edge_terms(chart, vertices) if edges is None else edges
    gradient = 1.0 - normal / inradius
    residual = gradient @ chart.closure_space
    size = np.abs(vertices).max()
    spread = (np.abs(form) @ (np.abs(lengths) + size)).sum() / abs(inradius)
    ahead, behind = (vertices * _cycled(vertices)[:, ::-1]).T
    locus = n * np.abs(chart.unit_perimeters).sum() / abs(chart.perimeter_sum)
    area_scale = 0.5 * (np.abs(ahead) + np.abs(behind)).sum() + size * np.abs(lengths).sum() + locus
    area_error = abs(0.5 * (ahead - behind).sum() - math.copysign(1.0, chart.perimeter_sum))
    gradient_bound = RESIDUAL_ROUNDOFF * n * EPS * (1.0 + spread)
    norm = math.sqrt(residual @ residual)
    return norm, float(gradient_bound), float(area_error), float(AREA_ROUNDOFF * EPS * area_scale)


# Kept while perfbench/tracer.py traces it; no program path calls it.
def critical_gradient_norm(point: TangentialCritical) -> tuple[float, float]:
    """The gradient norm and bound of :func:`tangential_residual` at one point."""
    return tangential_residual(point.chart, point.vertices, point.inradius)[:2]


def edge_hessians(points: Sequence[TangentialCritical]) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form and edge-space Hessians of the perimeter in the free radii,
    as two (K, m, m) stacks, one matrix per critical point of one chart.

    The edge-space one is -G^T Q G / r, G = M J: J = [-p_{2..} / p_1; I] spans
    the unit-area slice's tangent, and M maps its columns to edge lengths by
    :func:`~polyslope.slope_space.polygon_from_radii`'s offsets; one G serves all."""
    chart = _shared_chart(points)
    angles, p = chart.system.angles, chart.unit_perimeters
    tangent = np.vstack((-p[1:] / p[0], np.eye(chart.n - 3)))
    lines = line_vertices(angles, _radii_offsets(angles, tangent.T), chart.tol)
    moves = edge_lengths_along(lines, angles)
    form = moves @ chart.area_form @ moves.T
    radii = np.array([point.inradius for point in points])
    return hessian_formula(p, radii), -form / radii[:, None, None]


# Kept while perfbench/tracer.py traces it; no program path calls it.
def hessian_fd_comparison(point: TangentialCritical) -> tuple[np.ndarray, np.ndarray]:
    """:func:`edge_hessians` of one point: its two (m, m) Hessians."""
    return tuple(stack[0] for stack in edge_hessians((point,)))


# Kept while perfbench/tracer.py traces it; no program path calls it.
def well_conditioned_chart(system: SlopeSystem, tol: Tolerances = DEFAULT_TOL) -> RadiiChart:
    """The chart of ``system`` in the cyclic relabeling that minimizes
    max|p| / |p_1|, by which :func:`constrained_perimeter`'s r_1 divides."""
    chart = build_chart(system, tol)
    n = chart.n
    perimeters = _unit_perimeters(system.angles[(np.arange(n)[:, None] + np.arange(n)) % n])
    k = int(np.argmin(np.max(np.abs(perimeters), axis=1) / np.abs(perimeters[:, 0])))
    chosen = perimeters[k]
    chosen.setflags(write=False)
    total = float(np.sum(chosen))
    return replace(chart, system=system.rotated(k), unit_perimeters=chosen, perimeter_sum=total)


# Kept while perfbench/tracer.py traces it; no program path calls it.
def constrained_perimeter(chart: RadiiChart, free_radii, target_area: float, branch):
    """Perimeter p_1 r_1 + sum_{j>=2} p_j x_j at the free radii x = (r_2, ..., r_{n-2}),
    one point or a (K, m) stack, with r_1 = sign(branch) sqrt((2 A - sum_{j>=2}
    p_j x_j**2) / p_1) from the area law.  ``branch`` is one number or one per
    point.  A negative radicand leaves no real r_1 and raises NotCritical."""
    p = chart.unit_perimeters
    x = np.asarray(free_radii, dtype=float)
    radicand = (x * x * p[1:]).sum(axis=-1) * (-1.0 / p[0]) + 2.0 * target_area / p[0]
    if np.any(radicand < 0):
        worst = float(np.min(radicand))
        raise NotCritical(f"no real r_1 gives area {target_area!r}: radicand {worst!r}")
    return np.sqrt(radicand) * (p[0] * np.copysign(1.0, branch)) + (x * p[1:]).sum(axis=-1)
