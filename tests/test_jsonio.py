"""``jsonio.dumps`` against the recursive reference encoder, byte for byte.

Numpy structured arrays take the table path of ``dumps``, formatted column by
column; the reference gets the same rows as dicts.  Everything else, lists of
dicts included, takes the recursive path, which mirrors the reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIG1
from jsonio_oracle import recursive_dumps
from reciprange import jsonio
from reciprange.kippenhahn import envelope_points, samples_to_json

INDENTS = (0, 2, -1)

_edge_floats = st.sampled_from([
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.5, -2.0, 5e-324,
    1e15 - 1, -(1e15 - 1), 1e15, -1e15, 2.0 ** 53, 1e16, -1e17, 1.2345678901234567e20,
])
_floats = (_edge_floats | st.floats(allow_nan=True, allow_infinity=True)
           | st.integers(-10**17, 10**17).map(float))
_keys = st.text(alphabet=st.sampled_from('ab"\\%s\n\t/é{}'), max_size=4)
_DTYPES = ("f8", "f8", "f4", "i8", "u8", "i2")


def _cells(dtype):
    if dtype.kind == "f":
        return _floats if dtype.itemsize == 8 else _edge_floats | st.floats(width=32)
    info = np.iinfo(dtype)
    return st.integers(int(info.min), int(info.max)) | st.sampled_from([0, int(info.max)])


@st.composite
def _tables(draw):
    """Structured arrays of int and float fields, each value repeated in runs
    as theta is, and for floats sometimes followed by the same magnitudes
    negated, as a curve's mirror images are; sometimes no rows, sometimes no
    fields."""
    keys = draw(st.lists(_keys.filter(bool), max_size=4, unique=True))
    rows, run, mirror = draw(st.integers(0, 10)), draw(st.integers(1, 4)), draw(st.booleans())
    dtype = np.dtype([(k, draw(st.sampled_from(_DTYPES))) for k in keys])
    table = np.empty(rows * run * (1 + mirror), dtype=dtype)
    for k in keys:
        values = np.repeat(np.array(draw(st.lists(_cells(dtype[k]), min_size=rows, max_size=rows)),
                                    dtype=dtype[k]), run)
        if mirror:  # ints are redrawn: negating would overflow the unsigned kinds
            values = np.concatenate((values, -values if dtype[k].kind == "f" else values[::-1]))
        table[k] = values
    return table


def _as_dicts(table):
    return [dict(zip(table.dtype.names, row)) for row in table.tolist()]


@given(_tables())
def test_table_path_matches_recursive_encoder(table):
    rows = _as_dicts(table)
    for indent in INDENTS:
        for obj, ref in ((table, rows), ({"samples": table, "n": 3}, {"samples": rows, "n": 3}),
                         ([table], [rows])):
            assert jsonio.dumps(obj, indent=indent) == recursive_dumps(ref, indent=indent)


_SIGNED = np.array([0.0, -0.0, 1.5, -1.5, math.inf, -math.inf, math.nan, -math.nan, -2.0, 2.0,
                    -1e15, 1e15, -(1e15 - 1), 0.1, -0.1, 5e-324, -5e-324])


@pytest.mark.parametrize("values", [
    np.tile(_SIGNED, 3),  # every value repeats
    np.concatenate((_SIGNED, _SIGNED[::-1], -_SIGNED)),  # every magnitude repeats with both signs
    np.linspace(-3.0, 7.0, 257) ** 3 + 0.1,  # no value or magnitude repeats
    np.array([0.0, 1.0, -2.0, 3.5, math.nan, -math.inf]),  # no value repeats
], ids=["all-repeat", "signed-pairs", "none-repeat", "none-repeat-edges"])
def test_repeated_and_distinct_floats(values):
    table = np.zeros(values.size, dtype=[("re", "f8"), ("n", "i8")])
    table["re"], table["n"] = values, np.arange(values.size)
    for indent in INDENTS:
        assert jsonio.dumps(table, indent=indent) == recursive_dumps(_as_dicts(table), indent=indent)


@pytest.mark.parametrize("xi", [FIG1, (1.0, 1.0, 1.0)])
def test_curve_samples_take_the_table_path(xi):
    # FIG1 has odd n: its middle branch prints 0.0, which "%.17g" would print as 0
    table = samples_to_json(envelope_points(xi, 64))
    assert isinstance(table, np.ndarray) and table.dtype.names == ("theta", "branch", "re", "im")
    for indent in INDENTS:
        assert jsonio.dumps(table, indent=indent) == recursive_dumps(_as_dicts(table), indent=indent)


@pytest.mark.parametrize("dtype", ["?", "c16", "O", "2i8", pytest.param("g", marks=pytest.mark.skipif(
    np.dtype("g").itemsize <= 8, reason="long double is double on this platform"))])
def test_other_field_kinds_are_refused(dtype):
    table = np.zeros(2, dtype=[("a", "f8"), ("b", dtype)])
    with pytest.raises(TypeError):
        jsonio.dumps({"samples": table})


@pytest.mark.skipif(np.dtype("g").itemsize <= 8, reason="long double is double on this platform")
@pytest.mark.parametrize("scalar", [np.longdouble(1.5), np.clongdouble(1 + 2j)], ids=["g", "G"])
def test_long_double_scalars_are_refused(scalar):
    # .item() returns the long double itself, so unwrapping it again would never end
    with pytest.raises(TypeError):
        jsonio.dumps({"x": [scalar]})


def test_empty_and_non_table_lists():
    for obj in ([], [{}], [{}, {}], [1.0, 2.0], [{"a": 1.0}, 2.0], [{"a": True}], [{"a": np.float64(1.0)}],
                [{"a": 1}, {"a": 1.0}], [{"a": [1.0]}]):
        for indent in INDENTS:
            assert jsonio.dumps(obj, indent=indent) == recursive_dumps(obj, indent=indent)
