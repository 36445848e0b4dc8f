"""Exception types shared across the package."""


class ArgumentError(ValueError):
    """Raised when an argument fails validation."""


class ConfigError(ValueError):
    """Raised when an experiment configuration is inconsistent."""


class SolveFailure(RuntimeError):
    """Raised when a shifted Gram solve fails its check (see ``ShiftedGram``)."""


class EvaluationError(RuntimeError):
    """Raised when a scalar function cannot be evaluated where required."""
