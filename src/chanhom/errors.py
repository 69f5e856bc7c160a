"""Shared exception types."""


class GeometryError(ValueError):
    """Invalid channel profile or domain parameters."""


class AlignmentError(ValueError):
    """A geometric wall would fall strictly inside a grid cell."""


class ConfigError(ValueError):
    """Configuration file violates the schema; message names the field path."""


class StabilityError(ValueError):
    """Explicit time step exceeds the kinetics stability bound."""


class SolverError(RuntimeError):
    """Linear solver failure; carries the final relative residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
