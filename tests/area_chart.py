"""The edge-angle chart of polygons with fixed edge lengths, as functions of
(lengths, thetas): the references through which the tests check
``cyclic._area_gradient`` and ``_area_hessian`` and the closure Jacobian,
against central differences of :func:`chain_area` and :func:`closure_residual`.
"""

import numpy as np

from polyslope.cyclic import _area_gradient, _area_hessian, _edge_vectors, _head_differences, _rot90


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
