"""Deterministic JSON emission: floats at 17 significant digits, stable order.

A numpy structured array is written as a list of flat records, one per row,
formatted column by column, each distinct int or float magnitude of a
column once: the bytes are those of the same rows given as dicts.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _fmt_float(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        return '"%s"' % v  # JSON has no literals for these; stringify
    if v == int(v) and abs(v) < 1e15:
        return f"{v:.1f}"
    return format(v, ".17g")


def _column(a) -> list:
    """The printed cells of one scalar int or float field of a structured array.

    Each distinct int is formatted once: a curve's branch column holds n
    values in grid * n cells.  Each distinct float magnitude (by bit
    pattern) is formatted once, all of them by one "%.17g" call, and a
    negative value (-0.0 too) prints as "-" and its magnitude's cell: theta
    repeats once per branch, and the curve's mirror images repeat re and im
    up to sign.  "%.17g" prints what _fmt_float prints except on
    integer-valued floats below 1e15, nan and inf, which are formatted again
    by _fmt_float, signed for inf and nan.
    """
    # a sub-array field has more dimensions; a long double would round
    if a.ndim != 1 or a.dtype.kind not in "iuf" or a.dtype.itemsize > 8:
        raise TypeError(f"cannot serialize field of dtype {a.dtype}")
    if a.dtype.kind != "f":
        values, index = np.unique(a, return_inverse=True)
        return np.array(list(map(str, values.tolist())), dtype=object)[index].tolist()
    a = np.ascontiguousarray(a, dtype=float)
    bits, index = np.unique(np.abs(a).view(np.int64), return_inverse=True)
    values = bits.view(float)
    cells = ("%.17g\0" * values.size % tuple(values.tolist())).split("\0")[:-1]
    plain = np.isfinite(values) & ((np.trunc(values) != values) | (values >= 1e15))
    for i in np.flatnonzero(~plain).tolist():
        cells[i] = _fmt_float(values[i])
    cells += ["-" + c for c in cells]
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        cells[values.size + i] = _fmt_float(-values[i])
    return np.array(cells, dtype=object)[index + values.size * np.signbit(a)].tolist()


def _records(arr, lead, inner, nl) -> str:
    """The encoded rows of a 1-d structured array, joined by commas."""
    if arr.ndim != 1:
        raise TypeError(f"cannot serialize a {arr.ndim}-d structured array")
    names = arr.dtype.names
    if not (names and arr.size):  # rows of no fields print as {}; no rows as nothing
        return ("," + nl).join([lead + "{}"] * arr.size)
    fields = (f"{inner}{json.dumps(str(k))}: ".replace("%", "%%") + "%s" for k in names)
    row = lead + "{" + nl + ("," + nl).join(fields) + nl + lead + "}"
    cells = [None] * (arr.size * len(names))
    for j, k in enumerate(names):
        cells[j::len(names)] = _column(arr[k])
    return ("," + nl).join([row] * arr.size) % tuple(cells)


def dumps(obj, indent=0) -> str:
    pad = " " * indent
    nl = "\n" if indent >= 0 else ""

    def enc(o, depth):
        lead = pad * (depth + 1)
        close = pad * depth
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, int):
            return str(o)
        if isinstance(o, float):
            return _fmt_float(float(o))
        if isinstance(o, np.ndarray) and o.dtype.names is not None:
            rows = _records(o, lead, pad * (depth + 2), nl)
            return "[" + nl + rows + nl + close + "]" if rows else "[]"
        if hasattr(o, "item") and not isinstance(o, (list, tuple, dict)):
            v = o.item()
            if type(v) is type(o):  # a long double stays one
                raise TypeError(f"cannot serialize {type(o)}")
            return enc(v, depth)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [f"{lead}{json.dumps(str(k))}: {enc(v, depth + 1)}" for k, v in o.items()]
            return "{" + nl + ("," + nl).join(items) + nl + close + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [f"{lead}{enc(v, depth + 1)}" for v in o]
            return "[" + nl + ("," + nl).join(items) + nl + close + "]"
        if isinstance(o, complex):
            return enc([o.real, o.imag], depth)
        raise TypeError(f"cannot serialize {type(o)}")

    return enc(obj, 0) + "\n"
