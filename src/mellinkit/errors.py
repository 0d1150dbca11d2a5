"""Exception types shared across mellinkit modules."""


class MellinkitError(Exception):
    """Base class for all mellinkit errors."""


class DomainError(MellinkitError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleArgumentError(DomainError):
    """Evaluation requested at (or within 1e-12 of) a pole of the function."""


class OrderTooHighError(DomainError):
    """Derivative order beyond the configured maximum."""


class JetOrderError(MellinkitError, ValueError):
    """A jet does not carry enough derivatives for the requested operator."""


class JetBaseMismatchError(MellinkitError, ValueError):
    """Jet base point does not match the pole index of the principal part."""


class UnknownIdError(MellinkitError, KeyError):
    """Lookup of an unregistered kernel, coefficient, identity or closed form."""


class IncompatibleDomainError(MellinkitError, ValueError):
    """Composite coefficient functions with no common validity half-plane."""


class RadiusExceededError(MellinkitError, ValueError):
    """Series evaluation requested outside the convergence radius without a
    closed form to fall back on."""


class ConvergenceError(MellinkitError, RuntimeError):
    """A series or quadrature failed to converge within its budget."""


class SingularIntegrandError(ConvergenceError):
    """The integrand overflowed or returned non-finite values at sample
    points that carry non-negligible quadrature weight."""


class SeamMismatchError(MellinkitError, RuntimeError):
    """Series and closed-form evaluations disagree at the switch-over point."""


class AccelerationFailureError(ConvergenceError):
    """The oscillatory rule's sums do not converge double exponentially: the
    integrand does not oscillate as declared."""


class StripViolationError(MellinkitError, ValueError):
    """Transform variable outside the declared validity strip."""


class KernelZeroError(MellinkitError, ValueError):
    """Interpolation would divide by a kernel value indistinguishable from 0."""


class TailCertificationError(MellinkitError, ValueError):
    """A finite sequence has neither a closed form nor a certifiable tail
    bound over the integration range."""
