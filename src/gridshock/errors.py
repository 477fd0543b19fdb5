"""Exception hierarchy and integer checks shared across the package; no numpy,
so the CLI can load it before `--threads` acts.

The CLI maps these onto exit codes: validation problems exit 2, numeric
failures exit 3, file/container problems exit 4.
"""

import numbers


def is_int(value) -> bool:
    """An integer, Python's or numpy's; bools are not integers."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_count(value) -> bool:
    return is_int(value) and value >= 0


class GridshockError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GridshockError):
    """Input violates a documented precondition or invariant."""


class SchemaError(ValidationError):
    """A delimited input file is missing or misusing declared columns."""


class InsufficientDataError(ValidationError):
    """An analysis has too few qualifying points to produce a result."""


class NumericError(GridshockError):
    """A computation produced non-finite or otherwise unusable values."""


class DivergenceError(NumericError):
    """An iterative procedure (fit or simulation) left the stable regime."""


class FileFormatError(GridshockError):
    """A serialized container is corrupt, truncated, or wrongly versioned."""
