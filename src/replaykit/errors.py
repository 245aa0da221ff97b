"""Exception types shared across the toolkit.

Plain ValueError / IndexError / OSError are used for ordinary argument,
bounds, and file problems; the classes here mark conditions callers are
expected to branch on.
"""


class ReplayKitError(Exception):
    """Base class for toolkit-specific errors."""


class ConfigurationError(ReplayKitError, ValueError):
    """A run or component was configured with incompatible settings."""


class NotReadyError(ReplayKitError, RuntimeError):
    """An operation was requested before its preconditions were met,
    e.g. sampling from an empty buffer."""


class NumericalError(ReplayKitError, ArithmeticError):
    """A non-finite or diverging value was produced where a finite one
    is required."""


class IntegrityError(ReplayKitError, RuntimeError):
    """Internal bookkeeping was used inconsistently, e.g. a backward
    pass with a cache from stale parameters."""


class CheckpointError(ReplayKitError, ValueError):
    """A checkpoint file is malformed or truncated, or lacks what the
    caller needs from it."""
