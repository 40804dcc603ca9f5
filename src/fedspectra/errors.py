"""Exception hierarchy shared across the package."""


class FedSpectraError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(FedSpectraError, ValueError):
    """Tensor dimensions do not satisfy an operation's contract."""


class CongruenceError(FedSpectraError, ValueError):
    """Parameter sets disagree on names, kinds, or shapes."""


class DomainError(FedSpectraError, ValueError):
    """Scalar argument outside its documented domain."""


class ConfigError(FedSpectraError, ValueError):
    """Invalid run configuration (bad key, bad value, broken invariant)."""


class IngestionError(FedSpectraError, ValueError):
    """Dataset or tensor file could not be read."""


class NonFiniteError(FedSpectraError, ValueError):
    """A tensor holds NaN or infinity where finite values are required."""
