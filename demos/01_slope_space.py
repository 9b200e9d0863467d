"""
Polygons with prescribed edge slopes: the radii chart
=====================================================

Fix a cyclically ordered list of directed lines through the origin.  Every
polygon whose i-th edge is parallel to the i-th line decomposes into
triangles sharing the first edge line, and the signed inradii of those
triangles form a global coordinate system.  This script builds the chart for
a pentagon slope system, reconstructs polygons from coordinates, and shows
the quadratic/linear laws for area and perimeter.
"""

import numpy as np

from polyslope import (
    SlopeSystem,
    build_chart,
    normalized_coordinates,
    oriented_area,
    polygon_from_radii,
    radii_of_polygon,
    signed_perimeter,
    topology_report,
)

# A pentagon slope system, angles in degrees (directions, not just lines).
system = SlopeSystem.from_degrees([10, 80, 150, 230, 300])

# The chart carries the turning data of the system: the angle sum of
# consecutive lines, k half turns, and the right and left turns, whose
# difference from k gives the winding number w = (k - RT) / 2.
chart = build_chart(system)
print(f"turning: angle sum = {np.degrees(chart.angle_sum):.1f} deg = {chart.half_turns} half turns")
print(f"turn counts: {chart.right_turns} right, {chart.left_turns} left, winding {chart.winding}")

# p_i is the signed perimeter of the i-th decomposition triangle scaled to
# signed inradius +1.  The number of positive p_i always equals
# half_turns - 1.
print("unit perimeters p:", np.round(chart.unit_perimeters, 4))
print("perimeter sum   :", round(chart.perimeter_sum, 4))

# Pick radii, build the polygon, and verify the two chart laws:
#   area = 1/2 sum p_i r_i^2      perimeter = sum p_i r_i
radii = np.array([0.9, -0.4, 1.3])
polygon = polygon_from_radii(chart, radii)
print("\nreconstructed vertices:\n", np.round(polygon.vertices, 4))
print("area     :", round(oriented_area(polygon), 10))
print("1/2 p.r^2:", round(0.5 * float(chart.unit_perimeters @ radii**2), 10))
print("perimeter:", round(signed_perimeter(polygon, system), 10))
print("p . r    :", round(float(chart.unit_perimeters @ radii), 10))

# The chart inverts: reading the radii back off the polygon.
print("radii roundtrip:", np.round(radii_of_polygon(chart, polygon), 10))

# Quadratic-form coordinates split by the signs of p: the signed sum of
# squares is the area again.
coords = normalized_coordinates(chart, polygon)
mask = chart.positive_mask
value = float(np.sum(coords.x[mask] ** 2) - np.sum(coords.x[~mask] ** 2))
print("sum_A x^2 - sum_B x^2 =", round(value, 10))

# The unit-area slice splits into two pieces classified by sphere x disc.
topology = topology_report(chart)
print(
    f"\ntopology: negative side {topology.negative_component.describe()}, "
    f"positive side {topology.positive_component.describe()}"
)
