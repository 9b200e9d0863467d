"""The three modelling tolerances, which decide on which locus a point sits:
parallel lines, the exceptional locus of slope systems (no perimeter
critical points) and the bifurcation locus of cyclic polygons.  A function
taking ``tol`` reads them from it (``DEFAULT_TOL`` by default), a function
taking a chart from ``RadiiChart.tol``; reports echo them and ``--tol-scale``
multiplies all three.  The bifurcation band stops at ``cyclic.B_RESOLUTION``,
1e-9: the numeric area index can trip below 2.8e-10 (measured on n 4..9).

Identities and oracles are checked against roundoff bounds in eps times the
quantity's scale, which nothing scales; each with its reader and worst case:
integral sums, 16 n max(1, |ratio|) (``geometry.integral_ratio``: 0.29 on
the 24,000 windings of sweep seeds 0..399; the sweep's line turns against
k pi, in units of pi: 0.32 on the same seeds);
a point on an edge, 8 (|x y'| + |y x'|) for the cross product x y' - y x' of its
rays (``geometry.winding_numbers``; 1.27 on 1,500 points, 2 at most); an edge off
its slope, ``parallel`` plus 256 (diameter + max|coordinate|) / length (``geometry._slope_rule``, which
``signed_perimeters``, ``polygon_measures`` and ``edges_against_slopes``
share; 38 on 1,600 cyclic duals, 16 on sweep seeds 0..399); the chart laws,
2048 sum|terms| (``slope_space._reconstruction``, the kernel of
``polygon_from_radii``, on the areas and signed perimeters of
``geometry.polygon_measures``, whose law sums the sweep reads; 55 on sweep
seeds 0..399, 486 on the fuzz systems, 3,359 on one with lines 0.03 degrees
apart); edge lengths, 64 (sum l + max|coordinate|)
(``cyclic.area_criticality_residual``; 0.9 on 4,000 cyclic polygons); a
tangential polygon's Lagrangian gradient on the closure space, 64 n (1 +
sum_ij |Q_ij| (|l_j| + max|v|) / |r|) (``tangential.tangential_residual``;
0.45 on sweep seeds 0..399, 0.26 on the fuzz slope systems); its shoelace
area against the reported one, 16 (1/2 sum(|x_i y_{i+1}| + |x_{i+1} y_i|) +
max|v| sum|l| + n sum|p| / |sum p|) (the same; 1.23 and 1.46); the Morse
index's eigenvalues of -Q / r on the edge-space tangent, 500 n max|Q| / |r|
(``tangential.INERTIA_ROUNDOFF``; the least 3.6e5 on the 2,385 fuzz and
near-parallel slope systems, 7.2e10 on the index trials of sweep seeds
0..399; within it either sign counts, as at 0.19 on [0, 120, 1e-8, 240]
degrees at scale 1e-3, next to the exceptional locus).  The constructors'
checks and the other roundoff bounds are fixed as well.
"""

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """The three modelling tolerances."""

    parallel: float = 1e-9     # radians; minimal angle between distinct lines
    exceptional: float = 1e-9  # |sum p_i| <= exceptional * sum|p_i|
    bifurcation: float = 1e-9  # |B| < bifurcation * sum|tan alpha_i|

    def scaled(self, factor: float) -> "Tolerances":
        """Every tolerance multiplied by ``factor`` (looser when factor > 1)."""
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError("tolerance scale factor must be a positive finite number")
        values = {f.name: getattr(self, f.name) * factor for f in dataclasses.fields(self)}
        return Tolerances(**values)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


DEFAULT_TOL = Tolerances()
