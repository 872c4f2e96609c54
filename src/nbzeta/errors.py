"""Exception types raised by the nbzeta package."""


class NbzetaError(Exception):
    """Base class for all package errors."""


class InvalidInvolution(NbzetaError):
    """Edge involution is not an involution or breaks tail/head pairing."""


class IndexOutOfRange(NbzetaError):
    """A vertex or edge index lies outside the declared range."""


class ParseError(NbzetaError):
    """Malformed graph text; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidParams(NbzetaError):
    """Model parameters violate a sampler precondition."""


class TooLarge(NbzetaError):
    """Input exceeds a documented size limit for this operation."""


class MethodUnsupported(NbzetaError):
    """Requested computation method does not apply to this graph."""


class NearPole(NbzetaError):
    """Evaluation point lies too close to a pole."""


class NearContourPole(NbzetaError):
    """A pole lies too close to the requested integration contour."""


class IdentityViolation(NbzetaError):
    """A determinant identity failed; carries both polynomials."""

    def __init__(self, message, lhs=None, rhs=None):
        super().__init__(message)
        self.lhs = lhs
        self.rhs = rhs


class FactorizationBreakdown(NbzetaError):
    """Symmetric factorization kept hitting near-zero pivots after retries."""


class UncertainCount(NbzetaError):
    """A Ritz value's residual band still contains the counting threshold
    at the tightest solver tolerance; carries theta, the band half-width
    (residual) and the threshold, which are also its args."""

    def __init__(self, theta, residual, threshold):
        super().__init__(theta, residual, threshold)
        self.theta = theta
        self.residual = residual
        self.threshold = threshold

    def __str__(self):
        return (
            f"Ritz value {self.theta!r} +- {self.residual:.3g} contains "
            f"threshold {self.threshold!r}"
        )


class IllConditioned(NbzetaError):
    """Least-squares design is rank deficient or too narrow to fit."""
