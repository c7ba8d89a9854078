"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class ValidationError(ValueError):
    """Input violates a documented precondition (tangency, membership, ...)."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite values or failed to converge."""


class CapacityError(ValueError):
    """Problem size exceeds a hard cap of an exhaustive algorithm."""


class ConfigError(ValueError):
    """Invalid benchmark configuration."""
