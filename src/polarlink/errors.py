"""Exception types shared across the package."""


class PolarlinkError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(PolarlinkError, ValueError):
    """Invalid or degenerate geometric input (coincident points, zero vectors)."""


class ConfigurationError(PolarlinkError, ValueError):
    """Physically or structurally invalid configuration parameters."""


class UnsupportedConfigurationError(ConfigurationError):
    """Requested setup outside the supported regime (e.g. more users than antennas)."""


class SingularChannelError(PolarlinkError, RuntimeError):
    """Channel matrix is rank deficient or too ill-conditioned for zero forcing."""


class ProjectionError(PolarlinkError, RuntimeError):
    """Feasibility projection failed to converge within the sweep cap."""


class InfeasibleLayoutError(PolarlinkError, ValueError):
    """Initial antenna layout violates the box or separation constraints."""


class NumericalError(PolarlinkError, ArithmeticError):
    """Internal numerical consistency check failed."""
