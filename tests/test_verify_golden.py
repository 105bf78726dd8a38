"""``reciprange verify`` output against digests recorded by
``scripts/make_verify_golden.py``: ``--n 4|5|6`` at seeds 0, 27 and
1885715326, and every n at seed 0.  The JSON must be byte-identical.  The
digests depend on the LAPACK results of the numpy build they were recorded
with, so the comparison runs only on that numpy version and machine type.
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
import make_verify_golden  # noqa: E402

from reciprange.cli import main  # noqa: E402

GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_golden.json").read_text())
CASES = GOLDEN["cases"]


def test_corpus_is_the_scripts_corpus():
    assert [(c["n"], c["seed"]) for c in CASES] == make_verify_golden.golden_inputs()


@pytest.mark.skipif(
    GOLDEN["environment"] != {"numpy": np.__version__, "machine": platform.machine()},
    reason=f"digests recorded with {GOLDEN['environment']}",
)
@pytest.mark.parametrize("case", CASES, ids=[f"n{c['n'] or 'all'}-seed{c['seed']}" for c in CASES])
def test_verify_output_matches_golden(case, tmp_path):
    out = tmp_path / "verify.json"
    assert main(make_verify_golden.verify_args(case["n"], case["seed"], out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == case["json_sha256"]
