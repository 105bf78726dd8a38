"""Deterministic JSON emission: floats at 17 significant digits, stable order."""

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


def _float_column(col):
    """The placeholder and values for one all-float column of a table.

    Runs of one value (theta repeats once per branch) are formatted once each
    by _fmt_float and filled in as strings.  Otherwise the column is filled in
    by "%.17g", which prints what _fmt_float prints except on integer-valued
    floats below 1e15, nan and inf; the mask marks the rows holding those.
    """
    a = np.array(col, dtype=float)
    bits = a.view(np.int64)  # tells -0.0 from 0.0
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if 2 * starts.size <= a.size:
        strs = np.array([_fmt_float(v) for v in a[starts].tolist()], dtype=object)
        return "%s", np.repeat(strs, np.diff(np.append(starts, a.size))).tolist(), None
    plain = np.isfinite(a) & ((np.trunc(a) != a) | (np.abs(a) >= 1e15))
    return "%.17g", col, ~plain


def _table(rows, lead, inner, close, nl):
    """The encoded items of a list of flat records, or None if ``rows`` is not one.

    A flat record is a dict; all of them must have the same keys in the same
    order, and each key all-``int`` or all-``float`` values (``bool`` and
    numpy scalars are neither).  One row template is filled per record, and
    rows holding a float that "%.17g" would print otherwise than _fmt_float
    are filled with _fmt_float strings, so the bytes are those of the
    recursive encoder.
    """
    first = rows[0]
    if type(first) is not dict or not first:
        return None
    keys = tuple(first)
    if not all(type(r) is dict and tuple(r) == keys for r in rows):
        return None
    cols = list(zip(*(r.values() for r in rows)))
    fmts, special = [], np.zeros(len(rows), dtype=bool)
    for j, col in enumerate(cols):
        types = set(map(type, col))
        if types == {int}:
            fmts.append("%d")
        elif types == {float}:
            fmt, cols[j], mask = _float_column(col)
            fmts.append(fmt)
            if mask is not None:
                special |= mask
        else:
            return None

    def template(placeholders):
        fields = (f"{inner}{json.dumps(str(k))}: ".replace("%", "%%") + p
                  for k, p in zip(keys, placeholders))
        return lead + "{" + nl + ("," + nl).join(fields) + nl + close + "}"

    values = list(zip(*cols))
    fast = template(fmts)
    out = [fast % v for v in values]
    if special.any():
        slow = template(["%s"] * len(keys))
        for i in np.flatnonzero(special).tolist():
            out[i] = slow % tuple(_fmt_float(v) if type(v) is float else v for v in values[i])
    return out


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
        if hasattr(o, "item") and not isinstance(o, (list, tuple, dict)):
            return enc(o.item(), depth)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [f"{lead}{json.dumps(str(k))}: {enc(v, depth + 1)}" for k, v in o.items()]
            return "{" + nl + ("," + nl).join(items) + nl + close + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = _table(o, lead, pad * (depth + 2), lead, nl)
            if items is None:
                items = [f"{lead}{enc(v, depth + 1)}" for v in o]
            return "[" + nl + ("," + nl).join(items) + nl + close + "]"
        if isinstance(o, complex):
            return enc([o.real, o.imag], depth)
        raise TypeError(f"cannot serialize {type(o)}")

    return enc(obj, 0) + "\n"
