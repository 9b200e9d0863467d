"""
Cyclic polygons and the index duality
=====================================

A cyclic polygon (vertices on a circle) is exactly a critical point of the
oriented area among polygons with the same edge lengths.  Tangent lines at
its vertices cut out a dual tangential polygon whose signed perimeter is
proportional to the signed tangent sum of the half central angles, and whose
slopes turn by the arcs.  The Morse index of the area and the Morse index of
the dual's perimeter add up to n - 3, so the dual's turns and the sign of
the tangent sum give the area index; counting the eigenvalues of the area
Hessian checks it.  The pentagram makes all of this concrete.
"""

import numpy as np

from polyslope import (
    CyclicPolygon,
    area_criticality_residual,
    area_morse_index_formula,
    area_morse_index_numeric,
    bifurcation_test,
    dual_polygon,
    duality_index_check,
)

pentagram = CyclicPolygon.from_degrees(1.0, [0, 144, 288, 72, 216])

inv = pentagram.invariants
print("pentagram on the unit circle")
print("  edge orientations:", inv.orientations.tolist())
print("  positive edges e =", inv.positive_edges, ", winding =", inv.winding)
print("  dual slopes: k =", inv.dual_half_turns, "half turns, winding = (k - (n - e)) / 2")
print("  tangent sum B =", round(inv.bifurcation_sum, 6))
print("  bifurcating:", bifurcation_test(inv))

# Cyclic polygons are critical points of the area at fixed edge lengths:
# the projected gradient vanishes.
polygon = pentagram.polygon
residual = area_criticality_residual(polygon, polygon.edge_lengths)
print("  area criticality residual:", f"{residual:.2e}")

# The dual polygon: tangent lines at the vertices, circle kept on the left.
dual = dual_polygon(pentagram)
print("\ndual tangential polygon")
print("  vertices:\n", np.round(dual.vertices, 4))
print("  signed perimeter:", round(dual.signed_perimeter, 6))
print("  2 R B           :", round(2 * pentagram.radius * inv.bifurcation_sum, 6))

# The area index by duality, mu_area = n - 3 - mu_dual, with mu_dual =
# k - 1 - [B > 0] from the dual slopes, checked by the eigenvalue count.
print("\nMorse indices")
report = duality_index_check(pentagram)
print("  dual perimeter index    :", report.mu_dual_perimeter)
print("  area index (formula)    :", area_morse_index_formula(inv))
print("  area index (eigenvalues):", area_morse_index_numeric(pentagram))
print(
    f"  check mu_numeric = n-3-mu_dual: {report.mu_area_numeric} = "
    f"{pentagram.n - 3} - {report.mu_dual_perimeter} -> {report.identity_holds}"
)

# A convex counterclockwise cyclic polygon maximizes the area, so its index
# is the full dimension n - 3 and the dual index is 0.
convex = CyclicPolygon.from_degrees(1.0, [5, 80, 140, 210, 290])
report = duality_index_check(convex)
print("\nconvex pentagon: area index", report.mu_area_numeric, end="")
print(", dual index", report.mu_dual_perimeter, "->", report.identity_holds)
