"""Exception types raised by the library."""


class PolyslopeError(Exception):
    """Base class for all library-specific errors."""


class InputError(PolyslopeError):
    """The input is at fault: it breaks its schema or describes no valid
    slope system or polygon.  The command line exits 2 on it; every other
    :class:`PolyslopeError` is a failed property or cross-check (exit 3)."""


class ParallelLines(InputError):
    """Two slope lines coincide modulo pi within tolerance."""


class PointOnBoundary(PolyslopeError):
    """Winding number requested at a point lying on the polygon."""


class NonIntegralTurn(PolyslopeError):
    """A cyclic angle sum is off its integral multiple: the line turns of a
    slope system, a cyclic polygon's dual slopes too (of pi, with k in
    1..n - 1), or winding angles (of 2pi)."""


class SlopeMismatch(InputError):
    """A polygon edge is not parallel to its declared slope."""


class SignatureMismatch(PolyslopeError):
    """Sign count of the chart perimeters disagrees with the turning number."""


class ReconstructionDegenerate(PolyslopeError):
    """Polygon reconstruction hit an ill-conditioned or inconsistent step."""


class CoincidentVertices(InputError):
    """Consecutive vertices of a cyclic polygon coincide within tolerance: its
    dual would have two consecutive parallel slopes.  A zero edge of any other
    polygon is an edge."""


class AntipodalVertices(InputError):
    """Consecutive vertices of a cyclic polygon are antipodal within tolerance."""


class LengthMismatch(InputError):
    """Vertices do not realize the prescribed edge lengths."""


class NotCritical(PolyslopeError):
    """A point is not the critical point it is taken for: a cyclic polygon fails
    :func:`polyslope.cyclic.area_morse_index_numeric`'s criticality test, or no
    real r_1 gives the area asked of :func:`polyslope.tangential.constrained_perimeter`.
    A slopes report raises none: its edge-space checks are cross-checks."""


class Bifurcating(PolyslopeError):
    """Index requested for a cyclic polygon on the bifurcation locus."""


# Kept while perfbench/test_perfbench.py imports it.
class DegenerateHessian(PolyslopeError):
    """A perimeter Hessian is singular.

    No library routine raises it: the perimeter Morse index is a formula of
    n, k and the sign of sum p, and the Hessian is singular only on the
    exceptional locus, which has no critical points.
    """


class DegenerateCritical(PolyslopeError):
    """An area Hessian eigenvalue is zero within its roundoff bound.

    The bound is derived from machine epsilon (see
    :func:`polyslope.cyclic.area_morse_index_numeric`), so only a polygon on
    the bifurcation locus, to working precision, raises it; up to n = 9 the
    bifurcation band withholds such polygons' indices first.
    """


class InputSchemaError(InputError):
    """An input file or command-line value does not match its documented schema."""
