"""Recursive reference encoder for ``reciprange.jsonio.dumps``.

Encodes every value on its own through ``_fmt_float`` and never builds row
templates, so the tests compare the table path of ``dumps`` with it byte for
byte.
"""

from __future__ import annotations

import json

from reciprange.jsonio import _fmt_float


def recursive_dumps(obj, indent=0) -> str:
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
            items = [f"{lead}{enc(v, depth + 1)}" for v in o]
            return "[" + nl + ("," + nl).join(items) + nl + close + "]"
        if isinstance(o, complex):
            return enc([o.real, o.imag], depth)
        raise TypeError(f"cannot serialize {type(o)}")

    return enc(obj, 0) + "\n"
