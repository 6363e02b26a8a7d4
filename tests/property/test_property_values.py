"""Property tests for the value-conversion rule (:func:`as_value_array`).

The server converts every ``ingest`` list payload with ``as_value_array``
right after decoding the request.  Over every list a JSON decoder can
return, the one-pass list conversion must accept exactly what numpy's
dtype discovery plus the ``biuf`` kind check accepts, with the same float64
bytes; only objects a decoder never returns (``Decimal``, ``Fraction``,
integers beyond 64 bits) convert where numpy would refuse them.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import as_value_array

#: Finite floats, with the edges a decoder can produce spelled out.
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
)
#: Integers as a 64-bit decoder returns them (wider ones decode as floats).
integers = st.integers(min_value=-(2**63), max_value=2**64 - 1) | st.sampled_from(
    [-(2**63), 2**63 - 1, 2**63, 2**64 - 1]
)
plain_numbers = floats | integers | st.booleans()
strings = st.sampled_from(["1", "nan", "0.5", "", "x"]) | st.text(max_size=3)
items = st.recursive(
    plain_numbers | st.none() | strings,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
#: Mostly numeric lists (the accepted side), with any decoded item mixed in.
decoded_lists = st.lists(plain_numbers, max_size=40) | st.lists(
    st.one_of(plain_numbers, items), max_size=12
)


def numpy_rule(values):
    """The reference: numpy discovers the dtype, the kind check decides."""
    try:
        read = np.asarray(values)
    except (TypeError, ValueError):
        return None
    if read.ndim <= 1 and read.dtype.kind in "biuf":
        return np.ascontiguousarray(read, dtype=np.float64)
    return None


def converted(values):
    try:
        return as_value_array(values)
    except TypeError:
        return None


@given(values=decoded_lists)
@settings(max_examples=1000, deadline=None)
def test_decoded_lists_convert_exactly_as_numpy_reads_them(values):
    expected = numpy_rule(values)
    actual = converted(values)
    if expected is None:
        assert actual is None
    else:
        assert actual is not None
        assert actual.dtype == np.float64 and actual.ndim == 1
        assert actual.tobytes() == expected.tobytes()


class _HasFloat:
    def __float__(self) -> float:
        return 0.125


def test_lists_of_objects_with_a_float_value_convert():
    """What numpy reads as ``object`` and refuses, the list rule converts
    as ``float()`` does (a decoder never returns these objects)."""
    values = [Decimal("0.5"), Fraction(1, 4), 2**70, _HasFloat()]
    assert numpy_rule(values) is None
    assert as_value_array(values).tolist() == [0.5, 0.25, float(2**70), 0.125]


@pytest.mark.parametrize(
    "values", [[10**400], [Decimal("1"), "1"], [Fraction(1, 2), None], [1.0, [2.0]]]
)
def test_lists_with_an_item_float_refuses_are_refused(values):
    with pytest.raises(TypeError, match="values must be a number or a flat list"):
        as_value_array(values)


def array_module_rule(values):
    """The list conversion through ``array.array("d")``, as it was before
    ``struct`` read lists: the reference for the same items and values."""
    import array
    import collections.abc
    import numbers
    import reprlib

    if isinstance(values, np.ndarray) and values.ndim == 1:
        if values.dtype == np.float64:
            return np.ascontiguousarray(values)
    elif isinstance(values, (numbers.Real, np.bool_)):
        return np.array([float(values)], dtype=np.float64)
    elif isinstance(values, collections.abc.Iterator):
        values = list(values)
    if isinstance(values, list):
        try:
            return np.frombuffer(array.array("d", values), dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            pass
    try:
        read = np.asarray(values)
    except (TypeError, ValueError):
        pass
    else:
        if read.ndim <= 1 and read.dtype.kind in "biuf":
            return np.ascontiguousarray(read, dtype=np.float64)
    raise TypeError(
        "values must be a number or a flat list of numbers, "
        f"got {reprlib.repr(values)}"
    )


def _outcome(rule, values):
    try:
        result = rule(values)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return result.dtype, result.shape, result.flags.writeable, result.tobytes()


#: Items of every kind a list payload may hold, in process or decoded.
any_items = st.one_of(
    floats,
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([10**400, -(10**400), True, False, None, "1", "nan", ""]),
    st.builds(np.float32, st.floats(width=32, allow_nan=False)),
    st.builds(np.int64, st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
    st.builds(Decimal, st.integers(min_value=-(10**30), max_value=10**30)),
    st.builds(Fraction, st.integers(), st.integers(min_value=1, max_value=10**6)),
    st.text(max_size=3),
    st.lists(floats, max_size=3),
)
any_lists = st.lists(any_items, max_size=12) | st.lists(floats | integers, max_size=64)


@given(values=any_lists | st.lists(st.lists(floats, min_size=1, max_size=3), max_size=4))
@settings(max_examples=1000, deadline=None)
def test_list_conversion_matches_the_array_module_rule(values):
    """``struct``'s native ``d`` converts each item as ``array.array("d")``
    did: the same float64 bytes, or the same refusal, for ints past 64 bits,
    bools, numpy scalars, ``Decimal``, ``Fraction``, strings, ``None``,
    nested, ragged and empty lists."""
    assert _outcome(as_value_array, values) == _outcome(array_module_rule, values)


@pytest.mark.parametrize(
    "values",
    [[], [[1.0, 2.0], [3.0]], [[1.0], [2.0]], [2**70, True, np.float32(0.5)], [10**400]],
)
def test_list_conversion_matches_the_array_module_rule_at_the_edges(values):
    assert _outcome(as_value_array, values) == _outcome(array_module_rule, values)
