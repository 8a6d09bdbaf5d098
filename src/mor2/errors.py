"""Exception types shared across the package.

One class per exit code of the command-line layer: ConfigError (2) for the
configuration, IntegrityError (4) for artifacts; any other Mor2Error is 3.
"""


class Mor2Error(Exception):
    """Base class for all package errors."""


class DimensionError(Mor2Error, ValueError):
    """Array arguments have incompatible or out-of-range shapes."""


class InputError(Mor2Error, ValueError):
    """Non-finite or otherwise invalid numeric input."""


class RankError(Mor2Error):
    """A factorization met numerical rank deficiency it cannot handle."""


class SingularityError(Mor2Error):
    """A linear matrix equation is singular or numerically close to it."""


class DivergenceError(Mor2Error):
    """Time integration produced non-finite values or blew up."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConfigError(Mor2Error):
    """Invalid run configuration."""


class IntegrityError(Mor2Error):
    """Persisted artifacts are missing, corrupt, or inconsistent with the config."""
