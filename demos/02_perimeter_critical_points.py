"""
Critical points of the signed perimeter
=======================================

On the unit-area slice of a slope system's polygon space, the signed
perimeter has exactly two critical points (or none): the two tangential
polygons, whose edge lines all touch one circle from a common side.  This
script constructs them, checks in edge space that the gradient really
vanishes, compares the closed-form Hessian against the area form pulled back
from edge space, and computes the Morse index two independent ways.
"""

import numpy as np

from polyslope import (
    SlopeSystem,
    build_chart,
    critical_gradient_norm,
    hessian_det_identity,
    hessian_fd_comparison,
    morse_index_eigen,
    tangential_critical_points,
)

system = SlopeSystem.from_degrees([10, 80, 150, 230, 300])
points = tangential_critical_points(build_chart(system))

for point in points:
    print(f"tangential point with signed inradius r = {point.inradius:+.6f}")
    print(f"  perimeter {point.perimeter:+.6f}, area {point.area:+.1f}")
    print(f"  incenter {np.round(point.incenter, 6)}, winding {point.chart.winding}")

    # The polygon's signed edge lengths l make the Lagrangian gradient
    # 1 - Q l / r vanish on the closure space, under the roundoff bound.
    norm, bound = critical_gradient_norm(point)
    print(f"  gradient norm: {norm:.2e} (bound {bound:.2e})")

    # Closed-form Hessian vs -G^T Q G / r, the area form pulled back to the
    # free radii, both exact up to rounding.
    closed, edge = hessian_fd_comparison(point)
    err = np.max(np.abs(edge - closed)) / np.max(np.abs(closed))
    print(f"  Hessian vs edge space: max deviation {err:.2e} of scale")

    # Determinant identity: r^(n-3) det H is an explicit product.
    lhs, rhs = hessian_det_identity(point)
    print(f"  determinant identity: {lhs:.6f} = {rhs:.6f}")

    # Morse index: the exact count from the signs of p agrees with the
    # combinatorial formula from turn counts, winding, and the perimeter sign.
    report = morse_index_eigen(point)
    print(
        f"  Morse index: sign count gives {report.index_eigen}, "
        f"formula gives {report.index_formula} (agree: {report.agreement})"
    )
    print("  eigenvalues:", np.round(report.eigenvalues, 4))
    print()

reports = [morse_index_eigen(p) for p in points]
print(
    f"index complement: {reports[0].index_eigen} + {reports[1].index_eigen} "
    f"= n - 3 = {system.n - 3}"
)
