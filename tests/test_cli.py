import argparse
import ast
import json
import math
import os
import re
import xml.etree.ElementTree as ET

import pytest

from reciprange import cli
from reciprange.matrices import MAX_XI
from reciprange.cli import SEED_CORPUS, main


def with_k(command, *args):
    """argv for ``command``, with the --k that range requires."""
    return [command, *args] + (["--k", "1"] if command == "range" else [])


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_classify_noncon4(capsys):
    code, out = run(capsys, "classify", "--xi", "1,0,1")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "DISPLACED_PAIR"
    assert rep["criterion"] == "noncon4"
    assert rep["ellipses"][0]["p"] == 0.5


def test_classify_degenerate(capsys):
    code, out = run(capsys, "classify", "--xi", "0,0,0,0,0")
    assert code == 0
    assert json.loads(out)["verdict"] == "DEGENERATE_SPECTRUM"


def test_classify_de1_caption_values(capsys):
    code, out = run(capsys, "classify", "--xi", "0.801938,1,0,1,0.801938")
    assert code == 0
    rep = json.loads(out)
    assert rep["criterion"] == "de1"
    assert rep["table_row"] == "vi"


def test_classify_unsupported_dimension(capsys):
    code, _ = run(capsys, "classify", "--xi", "1,1")
    assert code == 3


def test_input_errors(capsys, tmp_path):
    code, _ = run(capsys, "classify", "--xi", "1,zz,1")
    assert code == 2
    code, _ = run(capsys, "classify")
    assert code == 2
    code, _ = run(capsys, "classify", "--xi", "1,0,1", "--matrix", "x.json")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "classify", "--matrix", str(bad))
    assert code == 2
    code, _ = run(capsys, "classify", "--xi", "1,0,1", "--n", "5")
    assert code == 2
    code, _ = run(capsys, "range", "--xi", "1,0,1", "--k", "2", "--grid", "4")
    assert code == 2


@pytest.mark.parametrize("args", [
    ("classify", "--xi", "nan,1,1"),
    ("classify", "--xi", "1,1,inf,1"),
    ("classify", "--xi", "1,1,inf,1", "--mode", "exact"),
    ("classify", "--xi", "1,1,inf,1", "--mode", "extended"),
    ("range", "--xi", "nan,1,1", "--k", "1"),
    ("curve", "--xi", "nan,1,1"),
])
def test_non_finite_xi_rejected(capsys, args):
    assert main(list(args)) == 2
    assert "is not finite" in capsys.readouterr().err


def test_non_finite_matrix_file_rejected(capsys, tmp_path):
    f = tmp_path / "m.json"
    f.write_text('{"superdiag": [[2, 0], [NaN, 0]]}')
    assert main(["range", "--matrix", str(f), "--k", "1"]) == 2
    assert "is not finite" in capsys.readouterr().err


def no_computation(monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(cli, "rank_k_numeric", started)
    monkeypatch.setattr(cli, "envelope_points", started)


def test_grid_cap(capsys, monkeypatch):
    no_computation(monkeypatch)
    assert main(["range", "--xi", "1,0,1", "--k", "1", "--grid", str(10**9)]) == 2
    assert f"--grid must be in 8..{cli.MAX_GRID}" in capsys.readouterr().err
    assert main(["curve", "--xi", "1,0,1", "--grid", str(cli.MAX_GRID + 1)]) == 2


@pytest.mark.parametrize("args", [
    ("curve", "--xi", "1e200,1,1"),
    ("curve", "--xi", "1,1,1.1e150"),
    ("range", "--xi", "1e308,1,1", "--k", "1"),
])
def test_oversized_xi_rejected(capsys, monkeypatch, args):
    # 1e200 printed every curve sample as "nan"; 1e308 raised OverflowError in range
    no_computation(monkeypatch)
    assert main(list(args)) == 2
    assert "exceeds 1e+150, the largest xi curve and range take" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["curve", "range"])
def test_oversized_matrix_file_rejected(capsys, monkeypatch, tmp_path, command):
    no_computation(monkeypatch)
    f = tmp_path / "m.json"
    f.write_text('{"superdiag": [[1e100, 0], [2, 0]]}')
    assert main(with_k(command, "--matrix", str(f))) == 2
    assert "xi[0] = 2.5e+199 exceeds 1e+150" in capsys.readouterr().err


@pytest.mark.parametrize("mode, code", [("float", 2), ("exact", 0), ("extended", 0)])
def test_oversized_xi_classify(capsys, mode, code):
    # float P_n overflowed: (1e155, 0, 1e155) read MIXED_NONE, though it is noncon4
    assert main(["classify", "--xi", "1e155,0,1e155", "--mode", mode]) == code
    captured = capsys.readouterr()
    if code:
        assert "exceeds 1e+150, the largest xi float classify takes" in captured.err
        assert "--mode exact" in captured.err
    else:
        assert json.loads(captured.out)["verdict"] == "DISPLACED_PAIR"


def test_largest_xi_gives_a_finite_curve(capsys):
    code, out = run(capsys, "curve", "--xi", f"{MAX_XI!r},1,1", "--grid", "64")
    assert code == 0
    assert all(math.isfinite(s[f]) for s in json.loads(out) for f in ("re", "im"))


@pytest.mark.parametrize("text", [
    '{"xi": ["a", 1, 1]}',
    '{"xi": 5}',
    '{"xi": "101"}',
    '{"xi": [1, null, 1]}',
    '{"xi": [1, true, 1]}',
    pytest.param('{"xi": [1%s, 1, 1]}' % ("0" * 400), id="xi-int-beyond-float"),
    '{"xi": []}',
    '{"superdiag": 5}',
    '{"superdiag": [[1]]}',
    '{"superdiag": [[2, "0"]]}',
    '{"n": "x", "superdiag": [[2, 0]]}',
    '{"superdiag": [[1e200, 0], [2, 0]]}',
])
@pytest.mark.parametrize("command", ["classify", "curve", "range"])
def test_malformed_matrix_file_is_an_input_error(capsys, tmp_path, command, text):
    f = tmp_path / "m.json"
    f.write_text(text)
    assert main(with_k(command, "--matrix", str(f))) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_matrix_file_input(capsys, tmp_path):
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"xi": [1.0, 0.0, 1.0]}))
    code, out = run(capsys, "classify", "--matrix", str(f))
    assert code == 0
    assert json.loads(out)["criterion"] == "noncon4"
    f2 = tmp_path / "m2.json"
    f2.write_text(json.dumps({"n": 3, "superdiag": [[2, 0], [0.5, 0]]}))
    code, out = run(capsys, "curve", "--matrix", str(f2), "--grid", "64")
    assert code == 0


def test_curve_outputs(capsys, tmp_path):
    svg = tmp_path / "c.svg"
    out_json = tmp_path / "c.json"
    code, _ = run(capsys, "curve", "--xi", "0.5,0,0.5,0", "--grid", "256",
                  "--svg", str(svg), "--out", str(out_json))
    assert code == 0
    samples = json.loads(out_json.read_text())
    assert len(samples) == 256 * 5
    assert set(samples[0]) == {"theta", "branch", "re", "im"}
    root = ET.parse(svg).getroot()
    polylines = [e for e in root.iter() if e.tag.endswith("polygon") or e.tag.endswith("polyline")]
    assert len(polylines) == 2  # one per drop component


def test_curve_svg_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        code, _ = run(capsys, "curve", "--xi", "1,0,1", "--grid", "128", "--svg", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_range_lens(capsys, tmp_path):
    svg = tmp_path / "r.svg"
    code, out = run(capsys, "range", "--xi", "1,0,1", "--k", "2", "--grid", "256",
                    "--svg", str(svg))
    assert code == 0
    region = json.loads(out)
    assert region["kind"] == "POLYGON"
    ET.parse(svg)  # well-formed XML


def test_range_empty_and_point(capsys):
    code, out = run(capsys, "range", "--xi", "1,1,1", "--k", "3", "--grid", "128")
    assert code == 0
    assert json.loads(out)["kind"] == "EMPTY"
    xi5 = f"{1 + math.sqrt(3)/2},0,1,{math.sqrt(3)/2}"
    code, out = run(capsys, "range", "--xi", xi5, "--k", "3", "--grid", "128")
    assert code == 0
    region = json.loads(out)
    assert region["kind"] == "POINT"
    assert abs(region["points"][0][0]) < 1e-9


def test_range_requires_k(capsys):
    code, _ = run(capsys, "range", "--xi", "1,0,1", "--grid", "128")
    assert code == 2


def test_json_byte_determinism(capsys):
    _, out1 = run(capsys, "classify", "--xi", "1,0,1")
    _, out2 = run(capsys, "classify", "--xi", "1,0,1")
    assert out1 == out2


def test_verify_battery(capsys, tmp_path):
    out = tmp_path / "verify.json"
    code, _ = run(capsys, "verify", "--grid", "256", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["failures"] == 0
    assert report["audit"]["confirmed"] is True
    assert report["audit"]["printed_coefficient"] == -41
    assert report["audit"]["reconstructed_coefficient"] == -41.0
    names = {c["name"] for c in report["checks"]}
    assert "concentric_criterion_audit" in names
    assert "closed_form_vs_determinant" in names
    # the range check names its farthest pair: the largest distance, where, and the bound
    ranges = next(c for c in report["checks"] if c["name"] == "corpus_analytic_vs_numeric_ranges")
    worst, xi, k = re.fullmatch(r"max (\S+) at (\(.*\)) k=(\d); bound 5e-3", ranges["detail"]).groups()
    assert 0 < float(worst) < 5e-3 and int(k) >= 1
    assert tuple(ast.literal_eval(xi)) in {tuple(x) for xs in SEED_CORPUS.values() for x in xs}


def _random_check(path):
    report = json.loads(path.read_text())
    return report, next(c for c in report["checks"] if c["name"] == "random_criterion_vs_divisibility")


@pytest.mark.parametrize("seed", [27, 1885715326])
def test_verify_n4_seeds_with_near_variety_draws(capsys, tmp_path, seed):
    # each seed draws one xi whose P_4 divides to 1e-6 of its coefficients
    # while lying 1e-5 off the con4 variety in xi
    out = tmp_path / "verify.json"
    code, _ = run(capsys, "verify", "--n", "4", "--seed", str(seed), "--grid", "256", "--out", str(out))
    report, check = _random_check(out)
    assert code == 0 and report["failures"] == 0
    assert check["status"] == "pass" and check["detail"] == "100 draws agree"


def test_verify_names_disagreeing_draws(capsys, tmp_path, monkeypatch):
    # every draw of the batch says concentric, so all 100 disagree with classify
    monkeypatch.setattr(cli, "brute_force_batch", lambda xis, tol: [{"concentric"} for _ in xis])
    out = tmp_path / "verify.json"
    code, _ = run(capsys, "verify", "--n", "4", "--grid", "64", "--out", str(out))
    report, check = _random_check(out)
    assert code == 4 and check["status"] == "fail"
    entries = check["detail"].split("; ")
    assert len(entries) == 100
    for entry in entries:
        xi, verdicts = re.fullmatch(r"(\[.*\]): (classify \w+, divisibility \[.*\])", entry).groups()
        assert len(ast.literal_eval(xi)) == 3
        assert verdicts == "classify MIXED_NONE, divisibility ['concentric']"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("mode", ["float", "exact", "extended"])
def test_classify_bad_tolerance_is_an_input_error(capsys, mode, tol):
    # NaN and -1 used to print MIXED_NONE and inf DEGENERATE_SPECTRUM for con4 input
    code = main(["classify", "--xi", "1,1,1", "--mode", mode, f"--tolerance={tol}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "tolerance must be finite and nonnegative" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_bad_tolerance_is_an_input_error(capsys, tmp_path, tol):
    code, _ = run(capsys, "verify", "--n", "4", f"--tolerance={tol}", "--out", str(tmp_path / "v.json"))
    assert code == 2 and not (tmp_path / "v.json").exists()


def test_classify_zero_tolerance_is_exact(capsys):
    code, out = run(capsys, "classify", "--xi", "1,0,1", "--tolerance", "0")
    assert code == 0 and json.loads(out)["verdict"] == "DISPLACED_PAIR"


@pytest.mark.parametrize("n", ["0", "3", "7"])
def test_verify_unsupported_dimension(capsys, tmp_path, n):
    code = main(["verify", "--n", n, "--out", str(tmp_path / "v.json")])
    assert code == 3 and not (tmp_path / "v.json").exists()
    assert f"verify covers n in 4..6, got {n}" in capsys.readouterr().err


def test_verify_negative_seed_is_an_input_error(capsys, tmp_path):
    # numpy's default_rng used to raise "expected non-negative integer": a traceback, exit 1
    code = main(["verify", "--n", "4", "--seed", "-1", "--out", str(tmp_path / "v.json")])
    captured = capsys.readouterr()
    assert code == 2 and not (tmp_path / "v.json").exists()
    assert captured.err == "error: --seed must be non-negative, got -1\n"


#: every command and the option through which it writes a file
WRITERS = [("classify", "--out"), ("curve", "--out"), ("curve", "--svg"),
           ("range", "--out"), ("range", "--svg"), ("verify", "--out")]


def _unwritable(kind, tmp_path):
    """(path, reason): a path that open() refuses, or whose write fails."""
    if kind == "missing directory":
        return str(tmp_path / "missing" / "x"), "No such file or directory"
    if kind == "directory":
        return str(tmp_path), "Is a directory"
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    return "/dev/full", "No space left on device"


@pytest.mark.parametrize("kind", ["missing directory", "directory", "full device"])
@pytest.mark.parametrize("command,option", WRITERS)
def test_unwritable_output_is_an_input_error(capsys, tmp_path, command, option, kind):
    # these used to end in a traceback with exit 1
    path, reason = _unwritable(kind, tmp_path)
    source = ["--n", "4"] if command == "verify" else ["--xi", "1,0,1"]
    grid = [] if command == "classify" else ["--grid", "64"]
    code = main(with_k(command, *source, *grid, option, path))
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"


#: the options each command reads
COMMAND_OPTIONS = {
    "classify": {"--xi", "--matrix", "--n", "--mode", "--tolerance", "--out"},
    "curve": {"--xi", "--matrix", "--n", "--grid", "--svg", "--out"},
    "range": {"--xi", "--matrix", "--n", "--grid", "--svg", "--out", "--k"},
    "verify": {"--n", "--grid", "--tolerance", "--seed", "--out"},
}
OPTION_VALUES = {"--xi": "1,0,1", "--matrix": "m.json", "--n": "4", "--k": "1", "--grid": "64",
                 "--mode": "exact", "--svg": "x.svg", "--out": "x.json", "--tolerance": "0",
                 "--seed": "1"}
UNREAD = [(command, option) for command, options in COMMAND_OPTIONS.items()
          for option in sorted(OPTION_VALUES.keys() - options)]


def test_each_command_takes_exactly_its_options():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    assert got == COMMAND_OPTIONS
    assert sum(map(len, got.values())) == 24


@pytest.mark.parametrize("command,option", UNREAD)
def test_unread_option_is_refused(capsys, command, option):
    assert len(UNREAD) == 16
    source = ["--n", "4"] if command == "verify" else ["--xi", "1,0,1"]
    with pytest.raises(SystemExit) as exc:
        main(with_k(command, *source, option, OPTION_VALUES[option]))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
