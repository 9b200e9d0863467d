"""Exception types raised by the library."""


class PolyslopeError(Exception):
    """Base class for all library-specific errors."""


class ParallelLines(PolyslopeError):
    """Two slope lines coincide modulo pi within tolerance."""


class PointOnBoundary(PolyslopeError):
    """Winding number requested at a point lying on the polygon."""


class NonIntegralTurn(PolyslopeError):
    """Cyclic sum of line angles is not an integer multiple of pi."""


class SlopeMismatch(PolyslopeError):
    """A polygon edge is not parallel to its declared slope."""


class SignatureMismatch(PolyslopeError):
    """Sign count of the chart perimeters disagrees with the turning number."""


class ReconstructionDegenerate(PolyslopeError):
    """Polygon reconstruction hit an ill-conditioned or inconsistent step."""


class CoincidentVertices(PolyslopeError):
    """Consecutive vertices coincide within tolerance."""


class AntipodalVertices(PolyslopeError):
    """Consecutive vertices of a cyclic polygon are antipodal within tolerance."""


class LengthMismatch(PolyslopeError):
    """Vertices do not realize the prescribed edge lengths."""


class NotCritical(PolyslopeError):
    """No real r_1 gives the requested area: the closed form in
    :func:`polyslope.tangential.constrained_perimeter` has a negative radicand."""


class Bifurcating(PolyslopeError):
    """Index requested for a cyclic polygon on the bifurcation locus."""


# Kept while perfbench/test_perfbench.py imports it.
class DegenerateHessian(PolyslopeError):
    """A perimeter Hessian is singular.

    No library routine raises it: the perimeter Morse index is an exact
    sign count, and the Hessian is singular only on the exceptional locus,
    which has no critical points.
    """


class DegenerateCritical(PolyslopeError):
    """An area Hessian eigenvalue is zero within its roundoff bound.

    The bound is derived from machine epsilon (see
    :func:`polyslope.cyclic.area_morse_index_numeric`), so only a polygon on
    the bifurcation locus, to working precision, raises it.
    """


class InputSchemaError(PolyslopeError):
    """An input file or command-line value does not match its documented schema."""
