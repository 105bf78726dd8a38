"""Record SHA-256 digests of ``reciprange curve`` JSON and SVG output.

The corpus is the paper's sets FIG1-FIG5, (1, 1, 1), (1, 0, 1) and
(1, 1, 1, 1, 1); one uniform draw on [0, 2.5) for each n = 2..7; and two
``--matrix`` files (n = 5 and 6) with uniform xi and random entry phases,
each at grids 256 and 2048.  Odd n whose Im A has a kernel of dimension
>= 3 are left out: there the middle branches at theta = pi/2, 3pi/2 come
from arbitrary kernel vectors picked by rounding.  The file stores each
case's arguments (and matrix file contents) with the two digests, and
``tests/test_curve_golden.py`` reruns every case and compares.  The digests
hold for the numpy build and machine type recorded with them.

The digests pin the last digits of every sample, so any change in how a
sample is computed moves them even where the curve agrees to a few ulps.
They were last recorded when ``curve_components`` began to take its
components from the ``loop`` labels of ``envelope_points`` (continuation
across theta = pi/2) instead of from step-size thresholds.  Every JSON
digest stayed the same, as the samples did; every SVG digest changed, as
the loops are now drawn in label order, each as the samples of one label in
theta order without the rows at theta = pi/2 and 3 pi/2, and FIG4 and FIG5
are three loops at grid 256, as at 2048, where they were two.

    PYTHONPATH=src python scripts/make_curve_golden.py [--out tests/data/curve_golden.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import tempfile
from pathlib import Path

import numpy as np

from reciprange.cli import main as cli_main
from reciprange.matrices import imag_part_spectrum

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "tests" / "data" / "curve_golden.json"
GRIDS = (256, 2048)
SEED = 7
SQRT3 = math.sqrt(3)
PAPER_SETS = {
    "FIG1": (0.5, 0.0, 0.5, 0.0),
    "FIG2": (1 + SQRT3 / 2, 0.0, 1.0, SQRT3 / 2),
    "FIG3": (0.801938, 1.0, 0.0, 1.0, 0.801938),
    "FIG4": (1.44504, 1.0, 1.44504, 0.0, 3.24698),
    "FIG5": (2.80194, 1.0, 2.80194, 0.0, 1.55496),
    "ones4": (1.0, 1.0, 1.0),
    "noncon4": (1.0, 0.0, 1.0),
    "ones6": (1.0, 1.0, 1.0, 1.0, 1.0),
}


def pinned_kernel(xi):
    """Odd n whose Im A has a kernel of dimension >= 3."""
    return len(xi) % 2 == 0 and np.sum(np.abs(imag_part_spectrum(xi)) < 1e-9) >= 3


def golden_inputs():
    """(label, xi or None, matrix dict or None) for every recorded input, in a fixed order."""
    rng = np.random.default_rng(SEED)
    cases = [(label, xi, None) for label, xi in PAPER_SETS.items()]
    cases += [(f"uniform{n}", tuple(float(v) for v in rng.uniform(0.0, 2.5, n - 1)), None)
              for n in range(2, 8)]
    for n in (5, 6):
        xi = rng.uniform(0.0, 2.5, n - 1)
        phases = rng.uniform(0.0, 2 * math.pi, n - 1)
        entries = (np.sqrt(xi) + np.sqrt(xi + 1)) * np.exp(1j * phases)
        superdiag = [[a.real, a.imag] for a in entries.tolist()]
        cases.append((f"phases{n}", None, {"n": n, "superdiag": superdiag}))
    return [c for c in cases if c[1] is None or not pinned_kernel(c[1])]


def curve_args(xi, matrix, grid, workdir: Path):
    """The ``reciprange curve`` argument list for one case; writes the matrix file."""
    if matrix is not None:
        path = workdir / "matrix.json"
        path.write_text(json.dumps(matrix))
        source = ["--matrix", str(path)]
    else:
        source = ["--xi", ",".join(repr(float(v)) for v in xi)]
    return ["curve", *source, "--grid", str(grid),
            "--out", str(workdir / "curve.json"), "--svg", str(workdir / "curve.svg")]


def digests(xi, matrix, grid):
    """SHA-256 hex digests of the JSON and SVG that ``reciprange curve`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        code = cli_main(curve_args(xi, matrix, grid, work))
        if code != 0:
            raise RuntimeError(f"reciprange curve exited {code}")
        return tuple(hashlib.sha256((work / name).read_bytes()).hexdigest()
                     for name in ("curve.json", "curve.svg"))


def environment():
    return {"numpy": np.__version__, "machine": platform.machine()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    rows = []
    for label, xi, matrix in golden_inputs():
        for grid in GRIDS:
            json_sha, svg_sha = digests(xi, matrix, grid)
            rows.append({"label": label, "xi": None if xi is None else list(xi), "matrix": matrix,
                         "grid": grid, "json_sha256": json_sha, "svg_sha256": svg_sha})
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"environment": environment(), "cases": rows}, indent=1) + "\n")
    print(f"{len(rows)} cases -> {args.out}")


if __name__ == "__main__":
    main()
