"""``reciprange range`` output against digests recorded by
``scripts/make_range_golden.py``: the paper sets, one draw of every
criterion family and two random-phase matrix files, at every k and grids
128 and 2048.  JSON and SVG must be byte-identical.  The digests depend on
the LAPACK results of the numpy build they were recorded with, so the
comparison runs only on that numpy version and machine type.
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
import make_range_golden  # noqa: E402

from reciprange.cli import main  # noqa: E402

GOLDEN = json.loads((Path(__file__).parent / "data" / "range_golden.json").read_text())
CASES = GOLDEN["cases"]


def test_corpus_is_the_scripts_corpus():
    recorded = {(c["label"], c["k"], c["grid"]) for c in CASES}
    assert recorded == {(label, k, g) for label, xi, matrix in make_range_golden.golden_inputs()
                        for k in range(1, make_range_golden.dimension(xi, matrix) + 1)
                        for g in make_range_golden.GRIDS}


@pytest.mark.skipif(
    GOLDEN["environment"] != {"numpy": np.__version__, "machine": platform.machine()},
    reason=f"digests recorded with {GOLDEN['environment']}",
)
@pytest.mark.parametrize("case", CASES, ids=[f"{c['label']}-k{c['k']}-{c['grid']}" for c in CASES])
def test_range_output_matches_golden(case, tmp_path):
    args = make_range_golden.range_args(case["xi"], case["matrix"], case["k"], case["grid"], tmp_path)
    assert main(args) == 0
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in make_range_golden.OUTPUTS)
    assert got == (case["json_sha256"], case["svg_sha256"])
