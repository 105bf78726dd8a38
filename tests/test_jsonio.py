"""``jsonio.dumps`` against the recursive reference encoder, byte for byte.

Lists of flat records take the table path of ``dumps``; everything else, and
any list the table path declines, the recursive one.
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
    0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -2.0, 5e-324,
    1e15 - 1, 1e15, -1e15, 2.0 ** 53, 1e16, -1e17, 1.2345678901234567e20,
])
_floats = (_edge_floats | st.floats(allow_nan=True, allow_infinity=True)
           | st.integers(-10**17, 10**17).map(float))
_ints = st.integers(-2**70, 2**70)
_other = st.booleans() | _floats.map(np.float64) | st.integers(-2**31, 2**31).map(np.int64) | st.none()
_keys = st.text(alphabet=st.sampled_from('ab"\\%s\n\t/é{}'), max_size=4)


@st.composite
def _tables(draw):
    """Records with one key list; columns of floats, ints or (sometimes) other
    scalars, each value repeated in runs as theta is; sometimes made ragged."""
    keys = draw(st.lists(_keys, max_size=4, unique=True))
    rows, run = draw(st.integers(0, 10)), draw(st.integers(1, 4))
    cols = []
    for _ in keys:
        values = draw(st.lists(draw(st.sampled_from([_floats, _floats, _ints, _other])),
                               min_size=rows, max_size=rows))
        cols.append([v for v in values for _ in range(run)])
    table = [dict(zip(keys, vals)) for vals in zip(*cols)] if keys else [{} for _ in range(rows * run)]
    if table and draw(st.booleans()):
        i = draw(st.integers(0, len(table) - 1))
        ragged = draw(st.sampled_from(["drop", "reverse", "extra"]))
        rec = table[i]
        if ragged == "drop" and rec:
            rec.pop(next(iter(rec)))
        elif ragged == "reverse":
            table[i] = dict(reversed(list(rec.items())))
        else:
            rec["extra"] = 1.0
    return table


@given(_tables())
def test_table_path_matches_recursive_encoder(table):
    for indent in INDENTS:
        for obj in (table, {"samples": table, "n": 3}, [table]):
            assert jsonio.dumps(obj, indent=indent) == recursive_dumps(obj, indent=indent)


@pytest.mark.parametrize("xi", [FIG1, (1.0, 1.0, 1.0)])
def test_curve_samples_take_the_table_path(xi):
    # FIG1 has odd n: its middle branch prints 0.0, which "%.17g" would print as 0
    rows = samples_to_json(envelope_points(xi, 64))
    assert jsonio._table(rows, "  ", "    ", "  ", "\n") is not None
    for indent in INDENTS:
        assert jsonio.dumps(rows, indent=indent) == recursive_dumps(rows, indent=indent)


def test_empty_and_non_table_lists():
    for obj in ([], [{}], [{}, {}], [1.0, 2.0], [{"a": 1.0}, 2.0], [{"a": True}], [{"a": np.float64(1.0)}],
                [{"a": 1}, {"a": 1.0}], [{"a": [1.0]}]):
        for indent in INDENTS:
            assert jsonio.dumps(obj, indent=indent) == recursive_dumps(obj, indent=indent)
