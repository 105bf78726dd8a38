#!/usr/bin/env python3
"""Render the showcase curves and their rank-k ranges into ./figures/.

Covers the five reference parameter sets: the drop-shaped n=5 curve, the
elliptical n=5 pair, and the three n=6 displaced configurations, plus the
all-ones n=6 matrix whose curve is three concentric ellipses.
"""

import argparse
import math
from pathlib import Path

from reciprange.cli import CLI_DEFAULT_TOL
from reciprange.ellipses import classify
from reciprange.kippenhahn import curve_components, envelope_points
from reciprange.matrices import exact_spectrum, matrix_from_xi
from reciprange.ranges import rank_k_numeric
from reciprange.svgplot import render_curve

CASES = {
    "n5_drop": (0.5, 0.0, 0.5, 0.0),
    "n5_elliptical": (1 + math.sqrt(3) / 2, 0.0, 1.0, math.sqrt(3) / 2),
    "n6_degenerate_central": (0.801938, 1.0, 0.0, 1.0, 0.801938),
    "n6_inner_central": (1.44504, 1.0, 1.44504, 0.0, 3.24698),
    "n6_outer_central": (2.80194, 1.0, 2.80194, 0.0, 1.55496),
    "n6_three_concentric": (1.0, 1.0, 1.0, 1.0, 1.0),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--grid", type=int, default=2048)
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name, xi in CASES.items():
        m = matrix_from_xi(xi)
        comps = curve_components(envelope_points(m, args.grid))
        foci = exact_spectrum(m.n)
        (outdir / f"{name}.svg").write_text(render_curve(comps, foci=foci))
        try:
            rep = classify(xi, tol=CLI_DEFAULT_TOL)
            verdict = f"{rep.verdict} ({rep.criterion})"
        except Exception:
            verdict = "n/a"
        for k in (1, 2, 3):
            if k > (m.n + 1) / 2:
                continue
            region = rank_k_numeric(m, k, args.grid)
            (outdir / f"{name}_rank{k}.svg").write_text(
                render_curve(comps, foci=foci, region=region)
            )
        print(f"{name}: {verdict} -> {outdir}/{name}*.svg")


if __name__ == "__main__":
    main()
