"""
Critical points of the signed perimeter
=======================================

On the unit-area slice of a slope system's polygon space, the signed
perimeter has exactly two critical points (or none): the two tangential
polygons, whose edge lines all touch one circle from a common side.  This
script constructs them, checks in edge space that the gradient really
vanishes, compares the closed-form Hessian against the area form pulled back
from edge space, and gives the Morse index by its formula in the half turns
k and the sign of the perimeter sum, checked by an independent count: the
negative eigenvalues of the area form on the edge-space tangent.
"""

import numpy as np

from polyslope import SlopeSystem, build_chart, tangential_critical_points
from polyslope.tangential import (
    edge_hessians,
    hessian_det_identities,
    index_reports,
    tangential_residual,
)

system = SlopeSystem.from_degrees([10, 80, 150, 230, 300])
points = tangential_critical_points(build_chart(system))

# Both points share one chart, so each check takes them as one stack.
closed, edge = edge_hessians(points)
identities = hessian_det_identities(points)
# The index count reads the first point's polygon; the other has edges -l.
reports = index_reports(points, points[0].polygon.vertices)

for k, point in enumerate(points):
    print(f"tangential point with signed inradius r = {point.inradius:+.6f}")
    print(f"  perimeter {point.perimeter:+.6f}, area {point.area:+.1f}")
    print(f"  incenter {np.round(point.incenter, 6)}, winding {point.chart.winding}")

    # The polygon's signed edge lengths l make the Lagrangian gradient
    # 1 - Q l / r vanish on the closure space, under the roundoff bound.
    norm, bound, _, _ = tangential_residual(point.chart, point.polygon.vertices, point.inradius)
    print(f"  gradient norm: {norm:.2e} (bound {bound:.2e})")

    # Closed-form Hessian vs -G^T Q G / r, the area form pulled back to the
    # free radii, both exact up to rounding.
    err = np.max(np.abs(edge[k] - closed[k])) / np.max(np.abs(closed[k]))
    print(f"  Hessian vs edge space: max deviation {err:.2e} of scale")

    # Determinant identity: r^(n-3) det H is an explicit product.
    lhs, rhs = identities[k]
    print(f"  determinant identity: {lhs:.6f} = {rhs:.6f}")

    # Morse index: k - 1 - [sum p > 0] at r > 0, n - k - 2 + [sum p > 0] at
    # r < 0, against the inertia of -Q / r on the edge-space tangent.
    report = reports[k]
    print(
        f"  Morse index: formula gives {report.index_formula}, "
        f"edge-space inertia gives {report.index_eigen} (agree: {report.agreement})"
    )
    print("  eigenvalues:", np.round(report.eigenvalues, 4))
    print()

print(
    f"index complement: {reports[0].index_eigen} + {reports[1].index_eigen} "
    f"= n - 3 = {system.n - 3}"
)
