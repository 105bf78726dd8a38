"""``reciprange curve`` output against digests recorded by
``scripts/make_curve_golden.py``: the paper sets, uniform draws for
n = 2..7, two random-phase matrix files and two odd n whose Im A has a
kernel of dimension >= 3, at grids 256 and 2048.  JSON and
SVG must be byte-identical.  The digests depend on the LAPACK results of the
numpy build they were recorded with, so the comparison runs only on that
numpy version and machine type.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import make_curve_golden  # noqa: E402

from reciprange.cli import main  # noqa: E402

GOLDEN = json.loads((Path(__file__).parent / "data" / "curve_golden.json").read_text())
CASES = GOLDEN["cases"]


def test_corpus_is_the_scripts_corpus():
    recorded = {(c["label"], c["grid"]) for c in CASES}
    inputs = make_curve_golden.golden_inputs()
    assert recorded == {(label, g) for label, _, _ in inputs for g in make_curve_golden.GRIDS}


@pytest.mark.skipif(
    GOLDEN["environment"] != {"numpy": np.__version__, "machine": platform.machine()},
    reason=f"digests recorded with {GOLDEN['environment']}",
)
@pytest.mark.parametrize("case", CASES, ids=[f"{c['label']}-{c['grid']}" for c in CASES])
def test_curve_output_matches_golden(case, tmp_path):
    args = make_curve_golden.curve_args(case["xi"], case["matrix"], case["grid"], tmp_path)
    assert main(args) == 0
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("curve.json", "curve.svg"))
    assert got == (case["json_sha256"], case["svg_sha256"])
