"""Error taxonomy shared by all workbench modules.

Exit-code mapping used by the CLI: PreconditionError (and subclasses)
means the caller supplied bad input (exit 2), ResourceLimitError means a
configured cap was exceeded (exit 3), ConvergenceError means an iterative
solver ran out of its budget (exit 4, with its ``best`` value), anything
else is internal (exit 1).
"""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class PreconditionError(WorkbenchError):
    """An operation precondition was violated or an input is malformed."""


class KindMismatchError(PreconditionError):
    """An element, vector, or representation was used with the wrong oracle or space."""


class UnsupportedKindError(PreconditionError):
    """The requested operation is not implemented for this oracle kind."""


class ResourceLimitError(WorkbenchError):
    """A configured resource cap (ball size, dimension, support, copies) was exceeded."""


class ConvergenceError(WorkbenchError):
    """An iterative solver did not converge within its iteration cap."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ConfigError(PreconditionError):
    """A config document failed validation; ``field`` points at the offender."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"config field '{field}': {message}"
        super().__init__(message)
        self.field = field
