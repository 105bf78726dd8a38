"""Record SHA-256 digests of ``reciprange verify`` JSON output.

The corpus is ``verify --n 4|5|6`` at seeds 0, 27 and 1885715326, plus
plain ``verify`` (all three dimensions) at seed 0, all at the default grid
and tolerance.  Seeds 27 and 1885715326 each draw an n = 4 xi that lies
about 1e-5 off the con4 variety.  The file stores each case's arguments with
the digest, and ``tests/test_verify_golden.py`` reruns every case and
compares.  The digests hold for the numpy build and machine type recorded
with them.

    PYTHONPATH=src python scripts/make_verify_golden.py [--out tests/data/verify_golden.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from reciprange.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import make_curve_golden  # noqa: E402  (environment)

DEFAULT_OUT = ROOT / "tests" / "data" / "verify_golden.json"
SEEDS = (0, 27, 1885715326)


def golden_inputs():
    """(n or None, seed) for every recorded case, in a fixed order; None runs every n."""
    return [(n, seed) for n in (4, 5, 6) for seed in SEEDS] + [(None, 0)]


def verify_args(n, seed, out: Path):
    """The ``reciprange verify`` argument list for one case."""
    dims = [] if n is None else ["--n", str(n)]
    return ["verify", *dims, "--seed", str(seed), "--out", str(out)]


def digest(n, seed):
    """SHA-256 hex digest of the JSON that ``reciprange verify`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "verify.json"
        code = cli_main(verify_args(n, seed, out))
        if code != 0:
            raise RuntimeError(f"reciprange verify exited {code}")
        return hashlib.sha256(out.read_bytes()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    rows = [{"n": n, "seed": seed, "json_sha256": digest(n, seed)} for n, seed in golden_inputs()]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"environment": make_curve_golden.environment(), "cases": rows},
                                   indent=1) + "\n")
    print(f"{len(rows)} cases -> {args.out}")


if __name__ == "__main__":
    main()
