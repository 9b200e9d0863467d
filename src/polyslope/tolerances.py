"""Numerical tolerances shared across the library.

Every function that takes a ``tol`` argument reads its thresholds from the
value passed in, with the frozen ``DEFAULT_TOL`` as the default; reports echo
that value and ``--tol-scale`` rescales every field uniformly.  Each field is
read by some check.  Fixed are the checks that constructors make before any
caller's tolerances apply (consecutive slopes or vertex arcs against
``DEFAULT_TOL.parallel``, ``geometry.COINCIDENT`` and ``cyclic.ANTIPODAL``)
and the roundoff bounds derived from machine epsilon in :mod:`polyslope.cyclic`
and :mod:`polyslope.tangential`, whose exact derivatives need no solver tolerance.
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
    on_boundary: float = 1e-9       # x diameter; winding-number boundary guard
    winding_residual: float = 1e-6  # x 2*pi; allowed winding rounding residual
    turn_integral: float = 1e-9     # relative; integrality of angle sum / pi
    exceptional: float = 1e-9       # |sum p_i| <= exceptional * sum|p_i|
    chart_check: float = 1e-10      # x scale; reconstruction postconditions
    bifurcation: float = 1e-9       # |B| < bifurcation * sum|tan alpha_i|
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
