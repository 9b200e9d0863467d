"""Numerical tolerances shared across the library.

Reports echo these tolerances and ``--tol-scale`` rescales them uniformly;
a few fixed thresholds elsewhere in the code are neither echoed nor scaled.
"""

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Collected numerical thresholds.

    Multiplicative conventions: entries marked "x scale" multiply a problem
    scale (polygon diameter, matrix magnitude, ...) before use.
    """

    parallel: float = 1e-9          # radians; minimal angle between distinct lines
    coincident: float = 1e-12       # x diameter; vertex distinctness
    on_boundary: float = 1e-9       # x diameter; winding-number boundary guard
    winding_residual: float = 1e-6  # x 2*pi; allowed winding rounding residual
    turn_integral: float = 1e-9     # relative; integrality of angle sum / pi
    exceptional: float = 1e-9       # |sum p_i| <= exceptional * sum|p_i|
    chart_check: float = 1e-10      # x scale; reconstruction postconditions
    newton: float = 1e-12           # area-constraint Newton solve
    area_band: float = 1e-7         # x max|M|; area Hessian dead band
    bifurcation: float = 1e-9       # |B| < bifurcation * sum|tan alpha_i|
    antipodal: float = 1e-6         # radians; alpha_i < pi/2 - antipodal
    length_match: float = 1e-9      # x scale; edge length realization
    condition_limit: float = 1e12   # reconstruction solve conditioning

    def scaled(self, factor: float) -> "Tolerances":
        """Every tolerance multiplied by ``factor`` (looser when factor > 1)."""
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError("tolerance scale factor must be a positive finite number")
        values = {f.name: getattr(self, f.name) * factor for f in dataclasses.fields(self)}
        return Tolerances(**values)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


DEFAULT_TOL = Tolerances()
