"""Exception types shared across the toolkit."""


class CurveLabError(Exception):
    """Base class for every error raised by curvelab."""


class DivisionNearZero(CurveLabError):
    """Jet division by a series whose constant term is (numerically) zero."""


class SqrtNonPositive(CurveLabError):
    """Jet square root of a series with non-positive constant term."""


class OutOfDomain(CurveLabError):
    """Parameter value outside the curve's declared domain, or empty domain."""


class PoleEncountered(CurveLabError):
    """Curve evaluation hit a pole of one of its component functions, or a
    value that overflows floating point."""


class NonSpacelikeVelocity(CurveLabError):
    """The velocity vector is not spacelike; only spacelike curves are handled."""


class NonSpacelikePrincipalNormal(CurveLabError):
    """g(T', T') <= 0: the curve is outside the spacelike-principal-normal regime."""


class DegenerateFrame(CurveLabError):
    """A Frenet residual vanished (or went null) before the frame was complete.

    ``level`` is 1, 2 or 3 for the residual producing N, B1 or B2.
    """

    def __init__(self, level: int, message: str = ""):
        self.level = level
        super().__init__(message or f"degenerate Frenet frame at level {level}")


class FrameDriftExceeded(CurveLabError):
    """Gram-condition drift during frame synthesis exceeded its tolerance.

    ``partial`` carries the trajectory integrated so far, when available.
    """

    def __init__(self, message: str = "", partial=None):
        self.partial = partial
        super().__init__(message or "frame drift exceeded tolerance")


class NotOnHyperbolicSphere(CurveLabError):
    """Construction input does not lie on the hyperbolic unit sphere."""


class ConvergenceFailure(CurveLabError):
    """An iteration or a quadrature stopped at its limit without converging."""


class IllConditionedFit(CurveLabError):
    """Too few samples or a near-singular design matrix for a requested fit."""


class UsageError(CurveLabError):
    """Malformed command-line invocation or configuration."""
