"""The edge-angle chart of polygons with fixed edge lengths, as functions of
(lengths, thetas): the area gradient and Hessian of the chord-closed chain in
all edge angles, and the closure Jacobian, which the tests check against
loops and central differences of :func:`chain_area` and
:func:`closure_residual`.  Two references of the projected area Lagrangian
that ``cyclic.area_morse_index_numeric`` counts: the polygon's own area with
its closure multiplier in closed form, assembled from full matrices, which
the program matches bit for bit (:func:`closed_form_area_eigenvalues`), and
the chord-closed chain with least-squares multipliers, which it matches
within roundoff (:func:`reference_area_eigenvalues`).
"""

import numpy as np

from polyslope.errors import DegenerateCritical, NotCritical
from polyslope.geometry import EPS


def _head_differences(w: np.ndarray) -> np.ndarray:
    """Row j, for j < n - 1: the sum of w_i over i < j minus that over j < i <= n - 2."""
    head = w[:-1]
    prefix = np.zeros_like(head)
    np.cumsum(head[:-1], axis=0, out=prefix[1:])
    after = head.sum(axis=0) - prefix - head
    return prefix - after


def _edge_vectors(lengths: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    return lengths[:, None] * np.column_stack([np.cos(thetas), np.sin(thetas)])


def _rot90(vectors: np.ndarray) -> np.ndarray:
    return np.column_stack([-vectors[:, 1], vectors[:, 0]])


def _area_gradient(w: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Gradient, in all edge angles, of the shoelace area of the chain of
    edge vectors w started at the origin and closed by a chord, diff their
    ``_head_differences``.  The chord-closed area equals the polygon's
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
    least-squares solution of J^T lambda = grad of least norm.
    """
    jac = _rot90(w).T[:, 1:]
    u, s, vh = np.linalg.svd(jac)
    rank = np.count_nonzero(s > s[0] * EPS * max(jac.shape))
    multipliers = u[:, :rank] @ ((vh[:rank] @ grad) / s[:rank])
    return vh[rank:].T, multipliers


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
    w = _edge_vectors(lengths, thetas)
    return _area_gradient(w, _head_differences(w))


def chain_area_hessian(lengths: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Hessian of the chord-closed area with respect to all edge angles."""
    w = _edge_vectors(lengths, thetas)
    return _area_hessian(w, _head_differences(w))


def _unit_polygon(phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices at the angles ``phis`` on the unit circle, and their edges."""
    vertices = np.column_stack([np.cos(phis), np.sin(phis)])
    return vertices, np.roll(vertices, -1, axis=0) - vertices


def _criticality(w, grad, basis) -> tuple[float, float]:
    """The norm of the area gradient ``grad`` on the closure space ``basis``
    of the edges w, and its bound 1e-8 max(1, perimeter**2)."""
    scale = max(1.0, float(np.sum(np.hypot(w[:, 0], w[:, 1]))) ** 2)
    return float(np.linalg.norm(basis.T @ grad)), 1e-8 * scale


def _projected_eigenvalues(w, grad, basis, lagrangian) -> tuple[np.ndarray, float]:
    """The eigenvalues of basis^T L basis, none for a triangle, with the
    criticality test, which ``area_morse_index_numeric`` leaves out (a
    polygon on a circle is critical), and the roundoff bound 500 n eps
    max|L| with that function's error and message; and the unit n eps max|L|."""
    n = len(w)
    residual, bound = _criticality(w, grad, basis)
    if residual > bound:
        raise NotCritical(f"cyclic polygon fails the criticality test ({residual!r})")
    unit = n * EPS * float(np.max(np.abs(lagrangian)))
    if basis.shape[1] == 0:
        return np.zeros(0), unit
    eigenvalues = np.linalg.eigvalsh(basis.T @ lagrangian @ basis)
    bound = 500.0 * n * EPS * float(np.max(np.abs(lagrangian)))
    if np.any(np.abs(eigenvalues) <= bound):
        raise DegenerateCritical(f"area Hessian eigenvalue within roundoff bound {bound!r}")
    return eigenvalues, unit


def reference_area_eigenvalues(phis: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`_projected_eigenvalues` at the vertex angles ``phis`` (radians)
    on the unit circle, of the chord-closed chain: the full-angle
    :func:`_area_hessian` sliced to the free angles plus the diagonal closure
    term, on :func:`_tangent_frame`'s basis and least-squares multipliers."""
    _, w = _unit_polygon(phis)
    diff = _head_differences(w)
    grad = _area_gradient(w, diff)[1:]
    basis, multipliers = _tangent_frame(w, grad)
    lagrangian = _area_hessian(w, diff)[1:, 1:] + np.diag(w[1:] @ multipliers)
    return _projected_eigenvalues(w, grad, basis, lagrangian)


def _closed_form_frame(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradient of the polygon's own area in the free angles, from the
    sums of the edges w before and after each edge, and the null-space basis
    of the constraint matrix w[1:]^T from one SVD, rank cut at max(s) eps
    max(shape)."""
    before = np.cumsum(w, axis=0) - w
    after = np.cumsum(w[::-1], axis=0)[::-1] - w
    grad = 0.5 * np.sum(w * (before - after), axis=1)[1:]
    constraints = w[1:].T
    _, s, vh = np.linalg.svd(constraints)
    return grad, vh[np.count_nonzero(s > s[0] * EPS * max(constraints.shape)) :].T


def closed_form_criticality(vertices: np.ndarray) -> tuple[float, float]:
    """The criticality test of :func:`closed_form_area_eigenvalues` on an
    (n, 2) vertex list: the residual and its bound."""
    w = np.roll(vertices, -1, axis=0) - vertices
    return _criticality(w, *_closed_form_frame(w))


def closed_form_area_eigenvalues(phis: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`_projected_eigenvalues` at the vertex angles ``phis`` (radians)
    on the unit circle, of the polygon's own area 1/2 sum_{j<k} cross(w_j,
    w_k) in the free angles.  Its gradient takes the sums before and after
    each edge; on the unit circle its closure multiplier is -J v_1, so the
    Lagrangian is 1/2 cross(w_j, w_k) sign(k - j) off the diagonal and
    cross(v_{k+1}, v_k) on it, on the null-space basis of the constraint
    matrix w[1:]^T from one SVD, rank cut at max(s) eps max(shape)."""
    vertices, w = _unit_polygon(phis)
    grad, basis = _closed_form_frame(w)
    x, y = w[1:].T
    upper = np.triu(0.5 * (np.outer(x, y) - np.outer(y, x)), 1)
    ahead = np.roll(vertices, -1, axis=0)[1:]
    diagonal = ahead[:, 0] * vertices[1:, 1] - ahead[:, 1] * vertices[1:, 0]
    return _projected_eigenvalues(w, grad, basis, upper + upper.T + np.diag(diagonal))
