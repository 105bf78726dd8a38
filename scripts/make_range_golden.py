"""Record SHA-256 digests of ``reciprange range`` JSON and SVG output.

The corpus is the paper's sets FIG1-FIG5, (1, 1, 1), (1, 0, 1) and
(1, 1, 1, 1, 1) (as in ``make_curve_golden.py``); one draw of every n = 4,
5, 6 criterion family (``perfbench/inputs.py``); and two ``--matrix`` files
(n = 5 and 6) with uniform xi and random entry phases.  Every input runs at
every k = 1..n and at grids 128 and 2048.  The file stores each case's
arguments (and matrix file contents) with the two digests, and
``tests/test_range_golden.py`` reruns every case and compares.  The digests
hold for the numpy build and machine type recorded with them.

    PYTHONPATH=src python scripts/make_range_golden.py [--out tests/data/range_golden.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from reciprange.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "scripts"))
import inputs  # noqa: E402  (the benchmark's seeded family draws)
import make_curve_golden  # noqa: E402  (paper sets, environment)

DEFAULT_OUT = ROOT / "tests" / "data" / "range_golden.json"
GRIDS = (128, 2048)
SEED = 11
OUTPUTS = ("range.json", "range.svg")


def golden_inputs():
    """(label, xi or None, matrix dict or None) for every recorded input, in a fixed order."""
    rng = np.random.default_rng(SEED)
    cases = [(label, xi, None) for label, xi in make_curve_golden.PAPER_SETS.items()]
    cases += [(family, tuple(inputs.family_draw(family, rng)), None) for family in inputs.FAMILIES]
    for n in (5, 6):
        xi = rng.uniform(0.0, 2.5, n - 1)
        phases = rng.uniform(0.0, 2 * math.pi, n - 1)
        entries = (np.sqrt(xi) + np.sqrt(xi + 1)) * np.exp(1j * phases)
        cases.append((f"phases{n}", None, {"n": n, "superdiag": [[a.real, a.imag] for a in entries.tolist()]}))
    return cases


def dimension(xi, matrix):
    return len(xi) + 1 if matrix is None else matrix["n"]


def range_args(xi, matrix, k, grid, workdir: Path):
    """The ``reciprange range`` argument list for one case; writes the matrix file."""
    if matrix is not None:
        path = workdir / "matrix.json"
        path.write_text(json.dumps(matrix))
        source = ["--matrix", str(path)]
    else:
        source = ["--xi", ",".join(repr(float(v)) for v in xi)]
    return ["range", *source, "--k", str(k), "--grid", str(grid),
            "--out", str(workdir / OUTPUTS[0]), "--svg", str(workdir / OUTPUTS[1])]


def digests(xi, matrix, k, grid):
    """SHA-256 hex digests of the JSON and SVG that ``reciprange range`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        code = cli_main(range_args(xi, matrix, k, grid, work))
        if code != 0:
            raise RuntimeError(f"reciprange range exited {code}")
        return tuple(hashlib.sha256((work / name).read_bytes()).hexdigest() for name in OUTPUTS)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    rows = []
    for label, xi, matrix in golden_inputs():
        for k in range(1, dimension(xi, matrix) + 1):
            for grid in GRIDS:
                json_sha, svg_sha = digests(xi, matrix, k, grid)
                rows.append({"label": label, "xi": None if xi is None else list(xi), "matrix": matrix,
                             "k": k, "grid": grid, "json_sha256": json_sha, "svg_sha256": svg_sha})
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"environment": make_curve_golden.environment(), "cases": rows},
                                   indent=1) + "\n")
    print(f"{len(rows)} cases -> {args.out}")


if __name__ == "__main__":
    main()
