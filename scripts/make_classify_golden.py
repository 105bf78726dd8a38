"""Record ``classify`` outputs on a fixed input list as a golden file.

The inputs are the benchmark's census draws (``perfbench/inputs.py``): every
n = 4, 5, 6 criterion family, each family draw pushed off its variety by
three step sizes (1e-10, 1e-7 and 1e-3 of its scale), uniform draws and the
zero vector, in float, exact and extended mode at tolerances 1e-9 and 1e-6.
Exact-mode draws are dyadic, so rational families stay on their variety in
binary.  The file stores each input with its output, and
``tests/test_classify_golden.py`` reruns every case and compares.

    PYTHONPATH=src python scripts/make_classify_golden.py [--out tests/data/classify_golden.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from reciprange.ellipses import classify

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402  (the benchmark's seeded draws)

MODES = ("float", "exact", "extended")
TOLS = (1e-9, 1e-6)
PUSH_STEPS = (1e-10, 1e-7, 1e-3)
SEEDS = (0, 1)
DEFAULT_OUT = ROOT / "tests" / "data" / "classify_golden.json"


def push_off(xi, rng, step):
    xi = list(xi)
    xi[int(rng.integers(len(xi)))] += step * max(1.0, max(xi))
    return tuple(xi)


def golden_inputs():
    """(label, xi, mode, tol) for every recorded case, in a fixed order."""
    cases = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for fam in inputs.FAMILIES:
            for mode in MODES:
                xi = inputs.family_draw(fam, rng, dyadic=mode == "exact")
                draws = [(fam, xi)] + [(f"{fam}/off{s:g}", push_off(xi, rng, s)) for s in PUSH_STEPS]
                for label, x in draws:
                    cases += [(label, x, mode, tol) for tol in TOLS]
        for n in (4, 5, 6):
            for mode in MODES:
                x = inputs.uniform_draw(n, rng, dyadic=mode == "exact")
                cases += [(f"uniform{n}", x, mode, tol) for tol in TOLS]
                if seed == SEEDS[0]:
                    cases += [(f"zero{n}", (0.0,) * (n - 1), mode, tol) for tol in TOLS]
    return cases


def record(label, xi, mode, tol):
    rep = classify(xi, mode=mode, tol=tol)
    out = {"label": label, "xi": list(xi), "mode": mode, "tol": tol}
    out.update(rep.to_json_dict())
    out["snapped_xi"] = None if rep.snapped_xi is None else list(rep.snapped_xi)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    rows = [record(*case) for case in golden_inputs()]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(rows, separators=(",", ":")) + "\n")
    verdicts = {}
    for r in rows:
        verdicts[r["verdict"]] = verdicts.get(r["verdict"], 0) + 1
    print(f"{len(rows)} cases -> {args.out}: {verdicts}")


if __name__ == "__main__":
    main()
