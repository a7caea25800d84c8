"""Exception types shared across the package."""


class HardyWavesError(Exception):
    """Base class for all package errors; carries diagnostics (default empty)."""

    def __init__(self, message="", diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ParameterError(HardyWavesError, ValueError):
    """Invalid physical or numerical parameter."""


class DomainError(HardyWavesError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ShapeError(HardyWavesError, ValueError):
    """Array shapes or grids do not match."""


class DegenerateInputError(HardyWavesError, ValueError):
    """Input is degenerate for the requested operation (e.g. zero mass)."""


class ConvergenceError(HardyWavesError, RuntimeError):
    """An iteration failed to converge; carries last-iterate diagnostics."""


class StepError(HardyWavesError, RuntimeError):
    """A single time step failed; carries step diagnostics."""


class BlowupError(HardyWavesError, RuntimeError):
    """Non-finite values appeared during propagation."""
