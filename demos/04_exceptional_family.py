"""
Exceptional slope systems: where critical points disappear
==========================================================

When the tangential polygon of a slope system has zero area, the perimeter
has no critical points at all; such systems are exceptional.  Along a
one-parameter family of slopes this happens exactly when the sum of the unit
perimeters crosses zero.  This script sweeps such a family, bisects the
crossing, and watches the pair of critical points disappear and reappear
with flipped area sign.
"""

import math

import numpy as np

from polyslope import SlopeSystem, build_chart, tangential_critical_points

START = [0.0, 150.0, 72.0, 290.0]
END = [0.0, 135.0, 72.0, 290.0]


def system_at(t):
    return SlopeSystem.from_degrees([(1 - t) * a + t * b for a, b in zip(START, END)])


print(f"{'t':>6}  {'perimeter sum':>14}  outcome")
for t in np.linspace(0.0, 1.0, 9):
    chart = build_chart(system_at(t))
    points = tangential_critical_points(chart)
    if not points:
        outcome = "exceptional (no critical points)"
    else:
        outcome = (
            f"two points, area sign {int(math.copysign(1, points[0].area)):+d}, "
            f"perimeters {points[0].perimeter:+.4f} / {points[1].perimeter:+.4f}"
        )
    print(f"{t:6.3f}  {chart.perimeter_sum:+14.6f}  {outcome}")

# Bisect the sign change of the perimeter sum.
lo, hi = 0.0, 1.0
flo = build_chart(system_at(lo)).perimeter_sum
while hi - lo > 1e-13:
    mid = 0.5 * (lo + hi)
    fmid = build_chart(system_at(mid)).perimeter_sum
    if flo * fmid <= 0:
        hi = mid
    else:
        lo, flo = mid, fmid
root = 0.5 * (lo + hi)
print(f"\nperimeter sum crosses zero at t = {root:.12f}")

outcome = tangential_critical_points(build_chart(system_at(root)))
print("at the root:", "regular" if outcome else "exceptional")
for offset in (-1e-4, 1e-4):
    points = tangential_critical_points(build_chart(system_at(root + offset)))
    label = "two critical points" if points else "exceptional"
    print(f"at t = root {offset:+.0e}: {label}")
