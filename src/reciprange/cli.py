"""Command-line front end: classify, curve, range, verify.

Exit codes: 0 success, 2 input error, 3 unsupported dimension,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import concentric6, jsonio
from .conics import best_fit_ellipse_residual
from .ellipses import (
    brute_force_batch,
    brute_force_decompositions,
    check_tolerance,
    classify,
    verdict_matches_oracle,
)
from .errors import InvalidInputError, UnsupportedDimensionError
from .geometry import EMPTY
from .kippenhahn import (
    DEFAULT_GRID,
    MIN_GRID,
    closed_form_poly,
    curve_components,
    detect_multiple_tangents,
    determinant_poly_eval,
    envelope_points,
    samples_to_json,
)
from .matrices import (
    XiParameters,
    as_xi,
    check_xi_bound,
    exact_spectrum,
    matrix_from_json_dict,
    matrix_from_xi,
)
from .ranges import rank_k_analytic, rank_k_numeric, region_distance
from .svgplot import render_curve

CLI_DEFAULT_TOL = 1e-6  # criterion match tolerance for caption-grade inputs
#: largest --grid: the eigen solve holds grid * n^2 real values (the stacked
#: tridiagonals T(rho) and their eigenvectors) and the envelope samples
#: grid * n records, so larger grids only exhaust memory
MAX_GRID = 65536

#: parameter sets used throughout the verification corpus
SEED_CORPUS = {
    4: [
        (1.0, 1.0, 1.0),
        (1.0, 0.0, 1.0),
        (1.0, (math.sqrt(5) + 1) / 2, 0.0),
    ],
    5: [
        (1 + math.sqrt(3) / 2, 0.0, 1.0, math.sqrt(3) / 2),
        (0.5, 0.0, 0.5, 0.0),
    ],
    6: [
        (0.801938, 1.0, 0.0, 1.0, 0.801938),
        (1.44504, 1.0, 1.44504, 0.0, 3.24698),
        (2.80194, 1.0, 2.80194, 0.0, 1.55496),
        (1.0, 1.0, 1.0, 1.0, 1.0),
    ],
}


def _check_grid(ns):
    if not MIN_GRID <= ns.grid <= MAX_GRID:
        raise InvalidInputError(f"--grid must be in {MIN_GRID}..{MAX_GRID}, got {ns.grid}")


def _load_xi(ns, curve=True) -> XiParameters:
    """The xi of ``--xi`` or ``--matrix``, checked against ``--n`` before any
    computation starts.  For curve and range (``curve``) every xi must also be
    at most MAX_XI, and ``--xi`` is read back from its canonical matrix
    (``matrix_from_xi``), as a matrix file's ``"xi"`` is, so both inputs
    give the same bytes; the round trip moves xi by rounding only."""
    if (ns.xi is None) == (ns.matrix_path is None):
        raise InvalidInputError("exactly one of --xi or --matrix is required")
    if ns.xi is not None:
        try:
            values = [float(v) for v in ns.xi.split(",")]
        except ValueError:
            raise InvalidInputError(f"cannot parse --xi {ns.xi!r}") from None
        xi = as_xi(values)
    else:
        try:
            with open(ns.matrix_path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise InvalidInputError(f"cannot read matrix file: {e}") from e
        xi = matrix_from_json_dict(obj).xi()
    if ns.n is not None and xi.n != ns.n:
        raise InvalidInputError(f"--n {ns.n} does not match input dimension {xi.n}")
    if curve:
        check_xi_bound(xi, "curve and range take")
        if ns.xi is not None:
            xi = matrix_from_xi(xi).xi()
    return xi


def _write(path, text):
    """Write text to the file at path; a path that cannot be written (no such
    directory, a directory, a full device) is an input error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise InvalidInputError(f"cannot write {path}: {e.strerror or e}") from None


def _emit(ns, obj):
    text = jsonio.dumps(obj, indent=2)
    if ns.out:
        _write(ns.out, text)
    else:
        sys.stdout.write(text)


def _write_svg(ns, text):
    if ns.svg:
        _write(ns.svg, text)


def cmd_classify(ns) -> int:
    rep = classify(_load_xi(ns, curve=False), mode=ns.mode, tol=ns.tolerance)
    _emit(ns, rep.to_json_dict())
    return 0


def cmd_curve(ns) -> int:
    _check_grid(ns)
    xi = _load_xi(ns)
    samples = envelope_points(xi, ns.grid)
    comps = curve_components(samples)
    _emit(ns, samples_to_json(samples))
    _write_svg(ns, render_curve(comps, foci=exact_spectrum(xi.n)))
    return 0


def cmd_range(ns) -> int:
    _check_grid(ns)
    xi = _load_xi(ns)
    if ns.k is None:
        raise InvalidInputError("--k is required for range")
    region = rank_k_numeric(xi, ns.k, ns.grid)
    _emit(ns, region.to_json_dict())
    if ns.svg:
        samples = envelope_points(xi, min(ns.grid, 1024))
        comps = curve_components(samples)
        _write_svg(ns, render_curve(comps, foci=exact_spectrum(xi.n),
                                    region=region if region.kind != EMPTY else None))
    return 0


def _check(checks, name, ok, detail=""):
    checks.append({"name": name, "status": "pass" if ok else "fail", "detail": detail})
    return ok


def cmd_verify(ns) -> int:
    """Run the oracle battery on the seed corpus plus random draws."""
    if ns.n is not None and ns.n not in (4, 5, 6):
        raise UnsupportedDimensionError(f"verify covers n in 4..6, got {ns.n}")
    _check_grid(ns)
    check_tolerance(ns.tolerance)
    if ns.seed < 0:
        raise InvalidInputError(f"--seed must be non-negative, got {ns.seed}")
    rng = np.random.default_rng(ns.seed)
    checks = []
    dims = [4, 5, 6] if ns.n is None else [ns.n]

    # closed form vs determinant recurrence
    worst = 0.0
    for n in dims:
        for _ in range(200):
            xi = rng.uniform(0.0, 2.5, n - 1)
            m = matrix_from_xi(xi)
            P = closed_form_poly(xi)
            for _ in range(3):
                th = rng.uniform(0, 2 * math.pi)
                lam = rng.uniform(-3, 3)
                d = determinant_poly_eval(m, th, lam)
                v = P(lam * lam, math.cos(th) ** 2)
                if n % 2:
                    v = -lam * v
                worst = max(worst, abs(d - v) / max(1.0, abs(d)))
    _check(checks, "closed_form_vs_determinant", worst < 1e-9, f"max rel dev {worst:.2e}")

    # spectrum formula: the dense phase-twisted matrices, solved as one stack
    worst = 0.0
    for n in dims:
        stack = []
        for _ in range(100):
            xi = rng.uniform(0.0, 2.5, n - 1)
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, n - 1))
            A = matrix_from_xi(xi).dense()
            for j in range(n - 1):
                A[j, j + 1] *= phases[j]
                A[j + 1, j] = 1 / A[j, j + 1]
            stack.append(A)
        ev = np.sort(np.linalg.eigvals(np.array(stack)).real, axis=-1)
        ex = np.sort(exact_spectrum(n))
        worst = max(worst, float(np.max(np.abs(ev - ex))))
    _check(checks, "spectrum_formula", worst < 1e-9, f"max dev {worst:.2e}")

    # seed corpus: classification vs brute force, analytic vs numeric regions.
    # positive verdicts run the oracle on the criterion-exact (snapped)
    # parameters, so caption-grade roundings do not leak into the divisibility.
    all_ok, detail, distances = True, [], []
    for n in dims:
        reps = [classify(xi, tol=ns.tolerance) for xi in SEED_CORPUS[n]]
        bases = [xi if rep.snapped_xi is None else rep.snapped_xi for xi, rep in zip(SEED_CORPUS[n], reps)]
        for xi, rep, found in zip(SEED_CORPUS[n], reps, brute_force_batch(bases, tol=1e-9)):
            agree = verdict_matches_oracle(rep, found)
            all_ok &= agree
            detail.append(f"{xi}:{rep.verdict}({rep.criterion})")
            if rep.verdict in ("ALL_CONCENTRIC", "DISPLACED_PAIR"):
                m = matrix_from_xi(xi)
                for k in range(1, (n + 1) // 2 + 1):
                    ra = rank_k_analytic(rep, k, ns.grid)
                    rn = rank_k_numeric(m, k, ns.grid)
                    distances.append((region_distance(ra, rn), xi, k))
    _check(checks, "corpus_criterion_vs_divisibility", all_ok, "; ".join(detail))
    worst = max(distances, key=lambda t: t[0], default=(0.0, None, None))
    _check(checks, "corpus_analytic_vs_numeric_ranges", worst[0] < 5e-3,
           "max {:.2e} at {} k={}; bound 5e-3".format(*worst))

    # perturbed instance: classification and divisibility must fail together
    xi = (1.0, 0.0, 1.0 + 1e-3)
    rep = classify(xi, tol=ns.tolerance)
    found = brute_force_decompositions(xi, tol=ns.tolerance)
    _check(checks, "perturbed_consistency", verdict_matches_oracle(rep, found),
           f"verdict {rep.verdict}, decompositions {sorted(found)}")

    # random classification agreement + flip invariance
    disagree, flip_ok = [], True
    for n in dims:
        draws = [rng.uniform(0.0, 2.5, n - 1).tolist() for _ in range(100)]
        for xi, found in zip(draws, brute_force_batch(draws, tol=ns.tolerance)):
            rep = classify(xi, tol=ns.tolerance)
            if not verdict_matches_oracle(rep, found):
                disagree.append(f"{xi}: classify {rep.verdict}, divisibility {sorted(found)}")
            rev = classify(list(reversed(xi)), tol=ns.tolerance)
            if rev.verdict != rep.verdict:
                flip_ok = False
    _check(checks, "random_criterion_vs_divisibility", not disagree,
           "; ".join(disagree) or f"{100 * len(dims)} draws agree")
    _check(checks, "flip_invariance", flip_ok, "")

    # drop-shaped curve: tangent events and non-elliptical components
    ords = sorted(detect_multiple_tangents((0.5, 0.0, 0.5, 0.0)))
    tangent_ok = len(ords) == 2 and abs(ords[1] - math.sqrt(0.5)) < 1e-9
    m = matrix_from_xi((0.5, 0.0, 0.5, 0.0))
    comps = [c for c in curve_components(envelope_points(m, ns.grid)) if c["kind"] == "loop"]
    fit_ok = len(comps) == 2 and all(best_fit_ellipse_residual(c["points"]) > 1e-3 for c in comps)
    _check(checks, "drop_curve_tangents_and_fit", tangent_ok and fit_ok,
           f"ordinates {ords}, components {len(comps)}")

    # concentric-triple criterion audit
    audit = concentric6.audit_concentric_criterion()
    _check(checks, "concentric_criterion_audit", audit["reconstructed_coefficient"] is not None,
           "printed -41 " + ("confirmed" if audit["confirmed"]
                             else f"corrected to {audit['reconstructed_coefficient']}"))

    failures = sum(1 for c in checks if c["status"] == "fail")
    out = {
        "checks": checks,
        "failures": failures,
        "audit": {
            "printed_coefficient": audit["printed_coefficient"],
            "reconstructed_coefficient": float(audit["reconstructed_coefficient"])
            if audit["reconstructed_coefficient"] is not None else None,
            "confirmed": audit["confirmed"],
        },
    }
    _emit(ns, out)
    return 0 if failures == 0 else 4


#: build_parser's arguments for each option
ARGUMENTS = {
    "xi": {"help": "comma-separated xi values"},
    "matrix": {"dest": "matrix_path", "help": "JSON matrix file"},
    "n": {"type": int, "help": "expected dimension"},
    "k": {"type": int, "help": "rank index"},
    "grid": {"type": int, "default": DEFAULT_GRID, "help": f"theta grid size, {MIN_GRID}..{MAX_GRID}"},
    "mode": {"choices": ("float", "exact", "extended"), "default": "float"},
    "svg": {"help": "write an SVG figure here"},
    "out": {"help": "write JSON output here (default stdout)"},
    "tolerance": {"type": float, "default": CLI_DEFAULT_TOL, "help": "criterion match tolerance"},
    "seed": {"type": int, "default": 0, "help": "rng seed"},
}
#: each command's handler, help line and options: exactly the options it reads
COMMANDS = {
    "classify": (cmd_classify, "classify the curve into elliptical components",
                 ("xi", "matrix", "n", "mode", "tolerance", "out")),
    "curve": (cmd_curve, "sample the curve and export JSON/SVG",
              ("xi", "matrix", "n", "grid", "svg", "out")),
    "range": (cmd_range, "compute a rank-k numerical range",
              ("xi", "matrix", "n", "grid", "svg", "out", "k")),
    "verify": (cmd_verify, "run the cross-validation battery",
               ("n", "grid", "tolerance", "seed", "out")),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="reciprange",
        description="Curves and rank-k numerical ranges of reciprocal tridiagonal matrices",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (handler, help_, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        for option in options:
            p.add_argument(f"--{option}", **ARGUMENTS[option])
    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.handler(ns)
    except UnsupportedDimensionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InvalidInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
