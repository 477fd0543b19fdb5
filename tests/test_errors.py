"""The kinds of checked values in gridshock.errors, and `checked` itself."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridshock import errors
from gridshock.errors import COUNT, FINITE, INTEGER, NONNEGATIVE, NUMBER, POSITIVE, FileFormatError, ValidationError

EDGE_VALUES = [math.nan, math.inf, -math.inf, 10**400, -(10**400), True, False, np.bool_(True), np.bool_(False),
               np.int64(-3), np.int64(0), np.int64(7), np.float64(math.nan), np.float64(2.5), np.float64(-0.0),
               0, 1, 2, 0.0, 1e-300, None, "1", "mean", [], [1, 2], [[0, 1]], {}, [{}], ["a"]]
VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.float64, st.floats(allow_nan=True, allow_infinity=True)),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
)
KINDS = st.one_of(
    st.sampled_from([errors.INTEGER, errors.COUNT, errors.NUMBER, errors.FINITE, errors.POSITIVE, errors.NONNEGATIVE,
                     errors.TEXT, errors.OBJECT, errors.OBJECTS, errors.TEXTS, errors.INTEGERS]),
    st.builds(errors.at_least, st.integers(-2, 3)),
    st.builds(errors.one_of, st.lists(st.text(max_size=2), min_size=1, max_size=3).map(tuple)),
)


@given(value=VALUES, kind=KINDS, error=st.sampled_from([ValidationError, FileFormatError]))
def test_checked_accepts_exactly_what_the_kind_does_and_otherwise_raises_the_template(value, kind, error):
    check, text = kind
    if check(value):
        assert errors.checked(value, kind, "config key 'k'", error) is value
    else:
        with pytest.raises(error) as info:
            errors.checked(value, kind, "config key 'k'", error)
        assert str(info.value) == f"config key 'k' must be {text}, got {value!r}"


def _number(value):
    """The float of a non-bool real value (inf beyond the float range), or None."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, float, np.integer, np.floating)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf


@given(value=VALUES)
def test_the_numeric_kinds_refuse_bools_and_non_finite_numbers(value):
    number = _number(value)
    integral = number is not None and isinstance(value, (int, np.integer))
    finite = number is not None and math.isfinite(number)
    assert INTEGER[0](value) == integral
    assert COUNT[0](value) == (integral and value >= 0)
    assert errors.at_least(2)[0](value) == (integral and value >= 2)
    assert NUMBER[0](value) == (number is not None)
    assert FINITE[0](value) == finite
    assert POSITIVE[0](value) == (finite and number > 0)
    assert NONNEGATIVE[0](value) == (finite and number >= 0)
