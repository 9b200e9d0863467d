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
combinatorial turn/winding formula.  Finite-difference utilities for the
constrained chart live here as well so that verification sweeps can
cross-check the gradient and the Hessian.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotCritical
from .geometry import (
    TWO_PI,
    PolygonChain,
    SlopeSystem,
    _successors,
    tangential_polygon,
    turn_counts,
)
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
    """

    chart: RadiiChart
    inradius: float
    incenter: np.ndarray
    perimeter: float
    area: float
    winding: int
    right_turns: int
    left_turns: int

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


def exceptional(chart: RadiiChart, tol: Tolerances | None = None) -> bool:
    """Whether the slope system yields an exceptional space (zero-area tangential)."""
    tol = DEFAULT_TOL if tol is None else tol
    scale = float(np.sum(np.abs(chart.unit_perimeters)))
    return abs(chart.perimeter_sum) <= tol.exceptional * scale


def tangential_critical_points(
    source: SlopeSystem | RadiiChart,
    tol: Tolerances | None = None,
) -> ExceptionalSpace | tuple[TangentialCritical, TangentialCritical]:
    """The two tangential critical points, or the exceptional marker.

    The points are mutual point reflections: the inscribed circle of one has
    signed radius +r and the other -r, with r = sqrt(2 / |sum p_i|).  Both
    have area sign equal to the sign of sum p_i.
    """
    tol = DEFAULT_TOL if tol is None else tol
    chart = source if isinstance(source, RadiiChart) else build_chart(source, tol)
    if exceptional(chart, tol):
        return ExceptionalSpace(chart=chart)
    magnitude = math.sqrt(2.0 / abs(chart.perimeter_sum))
    angles = chart.system.angles
    right_turns, left_turns = turn_counts(chart.system)
    # Seen from the incenter, vertex i turns to vertex i + 1 by (t_{i-1} + t_i) / 2,
    # t_i the turn of edge i to i + 1 in (-pi, pi): winding = turning number.
    turns = (_successors(angles) - angles + math.pi) % TWO_PI - math.pi
    winding = round(float(np.sum(turns)) / TWO_PI)
    # Canonical representative: the common circle center sits at signed
    # distance r from the first edge line, above the origin.
    return tuple(
        TangentialCritical(
            chart=chart,
            inradius=inradius,
            incenter=inradius * chart.system[0].normal,
            perimeter=inradius * chart.perimeter_sum,
            area=math.copysign(1.0, chart.perimeter_sum),
            winding=winding,
            right_turns=right_turns,
            left_turns=left_turns,
        )
        for inradius in (magnitude, -magnitude)
    )


def perimeter_hessian(point: TangentialCritical) -> np.ndarray:
    """Closed-form Hessian of the perimeter at a tangential critical point."""
    return hessian_formula(point.chart.unit_perimeters, point.inradius)


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
    perimeter_positive = 1 if point.perimeter > 0 else 0
    if point.inradius > 0:
        return point.right_turns - 1 + 2 * point.winding - perimeter_positive
    return point.left_turns - 1 - 2 * point.winding - perimeter_positive


def morse_index_sign_count(chart: RadiiChart, inradius: float) -> int:
    """Negative eigenvalues of the Hessian at the critical point of signed
    inradius ``inradius``, decided by signs alone.

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
    p = chart.unit_perimeters
    negatives = (
        int(np.count_nonzero(p[1:] < 0))
        + int(chart.perimeter_sum > 0)
        - int(p[0] > 0)
    )
    return negatives if inradius < 0 else chart.n - 3 - negatives


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
# Constrained chart: free radii (r_2, ..., r_{n-2}) with r_1 recovered from
# the unit-area constraint.  Used by finite-difference verification.
# ---------------------------------------------------------------------------


def well_conditioned_chart(system: SlopeSystem, tol: Tolerances | None = None) -> RadiiChart:
    """The chart of ``system`` in its well-conditioned relabeling.

    Same as ``build_chart(system, tol).well_conditioned``; callers that
    already hold a chart read its :attr:`RadiiChart.well_conditioned`, which
    is built once per chart.
    """
    return build_chart(system, tol).well_conditioned


def solve_first_radius(
    chart: RadiiChart,
    free_radii: np.ndarray,
    target_area: float,
    seed: float,
    tol: Tolerances | None = None,
) -> float:
    """Newton solve of 0.5 * sum p_i r_i**2 = target_area for r_1.

    The branch is selected by the seed value; iterates to machine-level
    convergence and enforces the configured residual tolerance.
    """
    free = np.asarray(free_radii, dtype=float)[None, :]
    return float(_solve_first_radii(chart, free, target_area, seed, tol)[0])


def _solve_first_radii(chart, free_radii, target_area, seed, tol):
    """:func:`solve_first_radius` for each row of a (K, m) matrix of free radii.

    Every row runs the same Newton iteration from the same seed and stops on
    its own, so each result is the one a single-row solve gives.  A failing
    row raises as a single-row solve would, the first such row winning.
    """
    tol = DEFAULT_TOL if tol is None else tol
    p0 = float(chart.unit_perimeters[0])
    squares = free_radii**2
    tail = np.sum(chart.unit_perimeters[1:] * squares, axis=1)
    tail_scale = np.sum(np.abs(chart.unit_perimeters[1:]) * squares, axis=1)
    r = np.full(len(free_radii), float(seed))
    active = np.ones(len(r), dtype=bool)
    vanished = np.zeros(len(r), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(60):
            residual = 0.5 * (p0 * r * r + tail) - target_area
            slope = p0 * r
            zero = slope == 0.0
            if zero.any():
                vanished |= active & zero
                active &= ~zero
            step = residual / slope
            r = np.where(active, r - step, r)
            active &= np.abs(step) > 1e-16 * np.maximum(1.0, np.abs(r))
            if not active.any():
                break
    residual = 0.5 * (p0 * r * r + tail) - target_area
    # The residual cannot be evaluated below the roundoff of its own terms,
    # which dominate near-exceptional systems where large terms cancel.
    scale = np.maximum(max(1.0, abs(target_area)), 0.5 * (abs(p0) * r * r + tail_scale))
    failed = vanished | (np.abs(residual) > tol.newton * scale)
    if failed.any():
        row = int(np.argmax(failed))
        if vanished[row]:
            raise NotCritical("area constraint has vanishing derivative in r_1")
        raise NotCritical(f"area constraint solve stalled at residual {float(residual[row])!r}")
    return r


def constrained_perimeter(
    chart: RadiiChart,
    free_radii,
    target_area: float,
    seed: float,
    tol: Tolerances | None = None,
) -> float:
    """Perimeter sum p . r on the constraint surface of fixed area."""
    free = np.asarray(free_radii, dtype=float)[None, :]
    return float(_constrained_perimeters(chart, free, target_area, seed, tol)[0])


def _constrained_perimeters(chart, free_radii, target_area, seed, tol):
    """:func:`constrained_perimeter` for each row of a (K, m) matrix of free radii."""
    r0 = _solve_first_radii(chart, free_radii, target_area, seed, tol)
    p = chart.unit_perimeters
    return p[0] * r0 + np.sum(p[1:] * free_radii, axis=1)


def perimeter_gradient_fd(
    chart: RadiiChart,
    free_radii,
    target_area: float,
    seed: float,
    step: float,
    tol: Tolerances | None = None,
) -> np.ndarray:
    """Central-difference gradient of the constrained perimeter."""
    free_radii = np.asarray(free_radii, dtype=float)
    m = len(free_radii)
    # Rows 2j and 2j + 1 step free radius j up and down.
    offsets = np.zeros((2 * m, m))
    cols = np.arange(m)
    offsets[2 * cols, cols] = step
    offsets[2 * cols + 1, cols] = -step
    values = _constrained_perimeters(chart, free_radii + offsets, target_area, seed, tol)
    return (values[0::2] - values[1::2]) / (2.0 * step)


def perimeter_hessian_fd(
    chart: RadiiChart,
    free_radii,
    target_area: float,
    seed: float,
    step: float,
    tol: Tolerances | None = None,
) -> np.ndarray:
    """Central-difference Hessian of the constrained perimeter."""
    free_radii = np.asarray(free_radii, dtype=float)
    return _hessian_fd(chart, free_radii, target_area, seed, (step,), tol)[0]


def _hessian_stencil(m):
    """Unit offsets of the central-difference Hessian stencil, in evaluation order.

    Row 0 is the centre.  Then, for each free radius j, come +e_j and -e_j
    and, for each k > j, the corners e_j + e_k, e_j - e_k, -e_j + e_k and
    -e_j - e_k.  Returns the offsets, the row of +e_j for each j, the pairs
    j < k in row-major order and the row of e_j + e_k for each pair.
    """
    j, k = np.triu_indices(m, 1)
    sizes = 2 + 4 * (m - 1 - np.arange(m))
    diagonal = 1 + np.cumsum(sizes) - sizes
    corners = diagonal[j] + 2 + 4 * (k - j - 1)
    units = np.zeros((1 + int(np.sum(sizes)), m))
    cols = np.arange(m)
    units[diagonal, cols] = 1.0
    units[diagonal + 1, cols] = -1.0
    corner_signs = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
    for row, (sign_j, sign_k) in enumerate(corner_signs):
        units[corners + row, j] = sign_j
        units[corners + row, k] = sign_k
    return units, diagonal, j, k, corners


def _hessian_fd(chart, free_radii, target_area, seed, steps, tol):
    """Central-difference Hessians at each of ``steps``, evaluated as one batch."""
    m = len(free_radii)
    units, diagonal, j, k, corners = _hessian_stencil(m)
    offsets = np.concatenate([units * step for step in steps])
    values = _constrained_perimeters(
        chart, free_radii + offsets, target_area, seed, tol
    ).reshape(len(steps), len(units))
    squares = np.array([step**2 for step in steps])[:, None]
    hessians = np.empty((len(steps), m, m))
    cols = np.arange(m)
    hessians[:, cols, cols] = (
        values[:, diagonal] + values[:, diagonal + 1] - 2.0 * values[:, :1]
    ) / squares
    mixed = (
        values[:, corners]
        - values[:, corners + 1]
        - values[:, corners + 2]
        + values[:, corners + 3]
    ) / (4.0 * squares)
    hessians[:, j, k] = mixed
    hessians[:, k, j] = mixed
    return hessians


def critical_gradient_norm(
    point: TangentialCritical,
    step_factor: float = 1e-6,
    tol: Tolerances | None = None,
) -> tuple[float, float]:
    """Finite-difference gradient norm of the perimeter at a critical point.

    Evaluated in the well-conditioned relabeling, with central steps of
    ``step_factor`` * |r|.  Returns (norm, bound) without comparing them.
    At a tangential point the norm is roundoff, which grows like
    eps * sum|p| / step_factor in that chart (at most 1.6 times that on
    8262 points of random slope systems, n 4..14); the bound is sixteen
    times that, and never below 1e-6.
    """
    chart = point.chart.well_conditioned
    scale = float(np.sum(np.abs(chart.unit_perimeters)))
    bound = max(1e-6, 16.0 * np.finfo(float).eps * scale / step_factor)
    if point.n < 4:
        return 0.0, bound
    free = np.full(point.n - 3, point.inradius)
    target = math.copysign(1.0, chart.perimeter_sum)
    step = step_factor * abs(point.inradius)
    grad = perimeter_gradient_fd(chart, free, target, point.inradius, step, tol)
    return float(np.linalg.norm(grad)), bound


HESSIAN_FD_LADDER = (1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)


def hessian_fd_comparison(
    point: TangentialCritical,
    tol: Tolerances | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form and finite-difference Hessians in the well-conditioned chart.

    Both matrices live in the same relabeled chart, so they are directly
    comparable entry by entry.  Central differences are evaluated, in one
    batch, at the steps ``HESSIAN_FD_LADDER`` times |r|; adjacent pairs are
    Richardson-extrapolated, and the estimate where successive
    extrapolations agree best wins.  That rides the noise/truncation
    trade-off per system and certifies five to six digits in double
    precision, where plain central differences bottom out around 1e-4 of
    the matrix scale.
    """
    chart = point.chart.well_conditioned
    closed = hessian_formula(chart.unit_perimeters, point.inradius)
    if closed.size == 0:
        return closed, closed.copy()
    free = np.full(point.n - 3, point.inradius)
    target = math.copysign(1.0, chart.perimeter_sum)
    steps = [factor * abs(point.inradius) for factor in HESSIAN_FD_LADDER]
    stencils = _hessian_fd(chart, free, target, point.inradius, steps, tol)
    extrapolated = (4.0 * stencils[1:] - stencils[:-1]) / 3.0
    gaps = np.max(np.abs(np.diff(extrapolated, axis=0)), axis=(1, 2))
    return closed, extrapolated[int(np.argmin(gaps)) + 1]
