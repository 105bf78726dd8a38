"""classify against outputs recorded before its algebra layer was rebuilt.

``tests/data/classify_golden.json`` is written by
``scripts/make_classify_golden.py``: every n = 4, 5, 6 criterion family, its
push-offs, uniform and zero draws, in all three modes at tol 1e-9 and 1e-6.
Verdict, criterion, table row, k and flags must match exactly, floats to
1e-12 relative.
"""

import json
import math
from pathlib import Path

import pytest

from reciprange.ellipses import classify

GOLDEN = Path(__file__).parent / "data" / "classify_golden.json"
ROWS = json.loads(GOLDEN.read_text())


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12)


def _mismatch(row):
    rep = classify(row["xi"], mode=row["mode"], tol=row["tol"])
    got = rep.to_json_dict()
    for key in ("verdict", "criterion", "table_row", "k", "origin_component"):
        if got[key] != row[key]:
            return f"{key}: {got[key]!r} != {row[key]!r}"
    if len(got["ellipses"]) != len(row["ellipses"]):
        return f"{len(got['ellipses'])} ellipses != {len(row['ellipses'])}"
    for e, f in zip(got["ellipses"], row["ellipses"]):
        nums = [(e[key], f[key]) for key in ("p", "X", "c")] + list(zip(e["foci"], f["foci"]))
        if e["degenerate"] != f["degenerate"] or not all(_close(a, b) for a, b in nums):
            return f"ellipse: {e} != {f}"
    snapped = None if rep.snapped_xi is None else list(rep.snapped_xi)
    if (snapped is None) != (row["snapped_xi"] is None) or (
        snapped is not None and not all(_close(a, b) for a, b in zip(snapped, row["snapped_xi"]))
    ):
        return f"snapped_xi: {snapped} != {row['snapped_xi']}"
    return None


@pytest.mark.parametrize("mode", ["float", "exact", "extended"])
def test_classify_matches_golden(mode):
    rows = [r for r in ROWS if r["mode"] == mode]
    assert rows
    bad = []
    for row in rows:
        msg = _mismatch(row)
        if msg:
            bad.append(f"{row['label']} {row['xi']} tol={row['tol']}: {msg}")
    assert not bad, "\n".join(bad[:20])
