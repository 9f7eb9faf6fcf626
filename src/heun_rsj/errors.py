"""Exception hierarchy shared by every module in the package.

All computational failures derive from :class:`HeunRsjError` so callers (and
the command line front end) can distinguish them from programming errors.
"""


class HeunRsjError(Exception):
    """Base class for every error raised deliberately by this package."""


class InvalidParams(HeunRsjError, ValueError):
    """A parameter record violates its construction invariants."""


class NonPositiveDiscriminant(HeunRsjError):
    """lambda + mu**2 <= 0: no real drive frequency reproduces the triplet."""


class NonIntegralDegree(HeunRsjError):
    """The reduced degree -(B/omega + 1) is not a non-negative integer."""


class NonFiniteState(HeunRsjError):
    """An integration produced a non-finite sample."""


class OriginUndefined(HeunRsjError):
    """The companion state hit x = y = 0 where the phase is undefined."""


class ZeroArgument(HeunRsjError):
    """An argument that must be nonzero (e.g. a frequency) was zero."""


class PoleAtAlpha(HeunRsjError):
    """Evaluation requested at the pole z = alpha of the Moebius map."""


class SingularPoint(HeunRsjError):
    """Evaluation requested at a singular point of a transformed equation."""


class IndexOutOfRange(HeunRsjError, IndexError):
    """A coefficient or root index lies outside its valid range."""


class NotSpectral(HeunRsjError):
    """(n, mu, lambda, epsilon) is not a spectral root: no polynomial solution."""


class ConvergenceFailure(HeunRsjError):
    """Root refinement failed to drive the determinant below tolerance."""

    def __init__(self, root_index: int, message: str):
        self.root_index = root_index
        super().__init__(message)


class PolynomialZeroOnPath(HeunRsjError):
    """The integration path for the second solution crosses a zero of P."""


class QuadratureFailure(HeunRsjError):
    """Adaptive quadrature did not converge to the requested tolerance."""


class ZeroOnUnitCircle(HeunRsjError):
    """P vanishes (numerically) on |z| = 1 where the phase formula divides by it."""


class NonPositiveArgument(HeunRsjError):
    """A strictly positive real argument was required."""


class MuNotPositive(HeunRsjError):
    """The orthogonality theorem needs mu > 0."""
