"""Exception types shared across the package."""


class MdeLabError(Exception):
    """Base class for all package-specific errors."""


class EmptyInputError(MdeLabError):
    """An operation received an empty atom list."""


class NegativeWeightError(MdeLabError):
    """A weight was negative."""


class DimMismatchError(MdeLabError):
    """Operands live in incompatible dimensions."""


class LpFailureError(MdeLabError):
    """The linear-programming solver failed to produce an optimum."""


class IterationCapError(LpFailureError):
    """The transportation simplex exceeded its pivot cap."""


class BaseOffGridError(MdeLabError):
    """A lifted measure's base atoms do not lie on the space grid."""


class SupportBlowupError(MdeLabError):
    """An operation would exceed the configured support-size cap."""


class OutOfRangeError(MdeLabError):
    """A value lies outside the range it must fall in: a query time outside
    the represented interval, or a transport cost past the float range."""


class EndpointMismatchError(MdeLabError):
    """Trajectory concatenation endpoints do not match the joint measure."""


class ConfigError(MdeLabError):
    """A scenario configuration is invalid."""


class IoError(MdeLabError):
    """An artifact could not be read or written."""
