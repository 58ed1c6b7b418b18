"""Exception types shared across the package.

ValueError is used directly for bad arguments; the classes here mark
conditions that deserve a distinct exit path in the command-line harness.
"""


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


class ResolutionError(RuntimeError):
    """A computation was refused because the requested resolution cannot
    support it (unresolved spectral tail, under-resolved quadrature, data
    narrower than the grid, ...).  The message states the admissible range."""


class NumericalError(RuntimeError):
    """An iteration failed to converge or produced non-finite values."""


class TruncationWarning(UserWarning):
    """A quantity was requested beyond the truncated spectrum; the returned
    value is exact for the truncation but carries no information about the
    discarded tail."""
