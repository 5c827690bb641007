"""Exception types shared across the package."""


class NcadmmError(Exception):
    """Base class for all package errors."""


class ConfigError(NcadmmError, ValueError):
    """Invalid solver or experiment configuration."""


class InputError(NcadmmError, ValueError):
    """Invalid runtime input (bad indices, negative thresholds, ...)."""


class ParseError(NcadmmError, ValueError):
    """Malformed data file. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalError(NcadmmError, RuntimeError):
    """Numerical failure in a linear-algebra kernel (e.g. SVD breakdown)."""


class DivergenceError(NcadmmError, RuntimeError):
    """Solver state became non-finite or blew up."""

    def __init__(self, message, iteration):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


class CapabilityError(NcadmmError, RuntimeError):
    """A diagnostic was requested without the state it needs."""


class InternalInvariantError(NcadmmError, RuntimeError):
    """Solver bookkeeping drifted from its defining identity."""
