"""Exception hierarchy, the one vocabulary of checked values and the
JSON-object file reader shared across the package; no numpy, so the CLI can
load it before `--threads` acts. The CLI maps the errors onto exit codes:
validation problems exit 2, numeric failures exit 3, file/container problems 4.

A kind is a (check, text) pair; :func:`checked` refuses a value its check
refuses with "<where> must be <text>, got <value!r>". Config keys, container
meta, scenario files and the Python API's arguments all read through it.
"""

import json
import math
import numbers


def is_int(value) -> bool:
    """An integer, Python's or numpy's; bools are not integers."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def at_least(n: int) -> tuple:
    """The kind of the integers >= n."""
    return lambda x: is_int(x) and x >= n, f"an integer >= {n}"


INTEGER = (is_int, "an integer")
COUNT = at_least(0)
is_count = COUNT[0]
NUMBER = (lambda x: isinstance(x, numbers.Real) and not isinstance(x, bool), "a number")


def _is_finite(value) -> bool:
    try:
        return NUMBER[0](value) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


POSITIVE = (lambda x: _is_finite(x) and x > 0, "a finite number > 0")
NONNEGATIVE = (lambda x: _is_finite(x) and x >= 0, "a finite number >= 0")
TEXT = (lambda x: isinstance(x, str), "a string")
OBJECT = (lambda x: isinstance(x, dict), "an object")
OBJECTS = (lambda x: isinstance(x, list) and all(isinstance(v, dict) for v in x), "a list of objects")
TEXTS = (lambda x: isinstance(x, list) and all(isinstance(v, str) for v in x), "a list of strings")
INTEGERS = (lambda x: isinstance(x, (list, tuple)) and all(map(is_int, x)), "a list of integers")
PAIRS = (
    lambda x: isinstance(x, list) and all(isinstance(v, list) and len(v) == 2 and all(map(is_count, v)) for v in x),
    "a list of [source, target] pairs of integers >= 0",
)


def one_of(words: tuple) -> tuple:
    """The kind of the strings in `words`."""
    return lambda x: isinstance(x, str) and x in words, "one of " + ", ".join(map(repr, words))


# The words of each word-valued setting, stated once: the CLI's choices and
# config checks and the library's argument checks all read them here.
AGGREGATIONS = ("mean", "max", "last")  # ingest's slot aggregation
BASELINES = ("simulated_total", "observed_total")  # enhance's reduction baseline
OPTIMIZERS = ("adaptive-moments", "plain-sgd")  # fit's update rule
SWEEP_MODES = ("edges", "margins")  # enhance's sweep axes


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


def checked(value, kind: tuple, where: str, error=ValidationError):
    """`value`, if it is of `kind`; otherwise `error`("<where> must be <text>, got <value!r>")."""
    if not kind[0](value):
        raise error(f"{where} must be {kind[1]}, got {value!r}")
    return value


def read_json_object(path, kind: str) -> dict:
    """The JSON object held by the `kind` ("config", "scenario") file at `path`;
    text that is not JSON, or JSON that is not an object, is a ValidationError."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{kind} file {path} must hold a JSON object")
    return payload
