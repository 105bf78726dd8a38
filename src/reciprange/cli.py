"""Command-line front end: classify, curve, range, verify.

Exit codes: 0 success, 2 input error, 3 unsupported dimension,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

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
    closed_form_poly,
    curve_components,
    detect_multiple_tangents,
    determinant_poly_eval,
    envelope_points,
    samples_to_json,
)
from .matrices import (
    as_xi,
    exact_spectrum,
    matrix_from_json_dict,
    matrix_from_xi,
)
from .ranges import rank_k_analytic, rank_k_numeric, region_distance
from .svgplot import render_curve

CLI_DEFAULT_TOL = 1e-6  # criterion match tolerance for caption-grade inputs
MIN_GRID = 8
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


@dataclass
class RunConfig:
    command: str
    xi: tuple | None = None
    matrix_path: str | None = None
    n: int | None = None
    k: int | None = None
    grid: int = 2048
    mode: str = "float"
    svg: str | None = None
    out: str | None = None
    tolerance: float = CLI_DEFAULT_TOL
    seed: int = 0

    def __post_init__(self):
        if self.command in ("classify", "curve", "range"):
            if (self.xi is None) == (self.matrix_path is None):
                raise InvalidInputError("exactly one of --xi or --matrix is required")
        if not MIN_GRID <= self.grid <= MAX_GRID:
            raise InvalidInputError(f"--grid must be in {MIN_GRID}..{MAX_GRID}, got {self.grid}")
        check_tolerance(self.tolerance)


def _load_matrix(cfg: RunConfig):
    if cfg.xi is not None:
        m = matrix_from_xi(cfg.xi)
    else:
        try:
            with open(cfg.matrix_path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise InvalidInputError(f"cannot read matrix file: {e}") from e
        m = matrix_from_json_dict(obj)
    if cfg.n is not None and m.n != cfg.n:
        raise InvalidInputError(f"--n {cfg.n} does not match input dimension {m.n}")
    return m


def _emit(cfg: RunConfig, obj):
    text = jsonio.dumps(obj, indent=2)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_svg(cfg, text):
    if cfg.svg:
        with open(cfg.svg, "w") as fh:
            fh.write(text)


def cmd_classify(cfg: RunConfig) -> int:
    xi = as_xi(cfg.xi) if cfg.xi is not None else _load_matrix(cfg).xi()
    if cfg.n is not None and xi.n != cfg.n:
        raise InvalidInputError(f"--n {cfg.n} does not match input dimension {xi.n}")
    rep = classify(xi, mode=cfg.mode, tol=cfg.tolerance)
    _emit(cfg, rep.to_json_dict())
    return 0


def cmd_curve(cfg: RunConfig) -> int:
    m = _load_matrix(cfg)
    samples = envelope_points(m, cfg.grid)
    comps = curve_components(samples)
    _emit(cfg, samples_to_json(samples))
    _write_svg(cfg, render_curve(comps, foci=exact_spectrum(m.n).eigenvalues))
    return 0


def cmd_range(cfg: RunConfig) -> int:
    m = _load_matrix(cfg)
    if cfg.k is None:
        raise InvalidInputError("--k is required for range")
    region = rank_k_numeric(m, cfg.k, cfg.grid)
    _emit(cfg, region.to_json_dict())
    if cfg.svg:
        samples = envelope_points(m, min(cfg.grid, 1024))
        comps = curve_components(samples)
        _write_svg(cfg, render_curve(comps, foci=exact_spectrum(m.n).eigenvalues,
                                     region=region if region.kind != EMPTY else None))
    return 0


def _check(checks, name, ok, detail=""):
    checks.append({"name": name, "status": "pass" if ok else "fail", "detail": detail})
    return ok


def cmd_verify(cfg: RunConfig) -> int:
    """Run the oracle battery on the seed corpus plus random draws."""
    if cfg.n is not None and cfg.n not in (4, 5, 6):
        raise UnsupportedDimensionError(f"verify covers n in 4..6, got {cfg.n}")
    rng = np.random.default_rng(cfg.seed)
    checks = []
    dims = [4, 5, 6] if cfg.n is None else [cfg.n]

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
                v = P.char_value(lam, th)
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
        ex = np.sort(exact_spectrum(n).eigenvalues)
        worst = max(worst, float(np.max(np.abs(ev - ex))))
    _check(checks, "spectrum_formula", worst < 1e-9, f"max dev {worst:.2e}")

    # seed corpus: classification vs brute force, analytic vs numeric regions.
    # positive verdicts run the oracle on the criterion-exact (snapped)
    # parameters, so caption-grade roundings do not leak into the divisibility.
    all_ok, detail, distances = True, [], []
    for n in dims:
        reps = [classify(xi, tol=cfg.tolerance) for xi in SEED_CORPUS[n]]
        bases = [xi if rep.snapped_xi is None else rep.snapped_xi for xi, rep in zip(SEED_CORPUS[n], reps)]
        for xi, rep, found in zip(SEED_CORPUS[n], reps, brute_force_batch(bases, tol=1e-9)):
            agree = verdict_matches_oracle(rep, found)
            all_ok &= agree
            detail.append(f"{xi}:{rep.verdict}({rep.criterion})")
            if rep.verdict in ("ALL_CONCENTRIC", "DISPLACED_PAIR"):
                m = matrix_from_xi(xi)
                for k in range(1, (n + 1) // 2 + 1):
                    ra = rank_k_analytic(rep, k, cfg.grid)
                    rn = rank_k_numeric(m, k, cfg.grid)
                    distances.append((region_distance(ra, rn), xi, k))
    _check(checks, "corpus_criterion_vs_divisibility", all_ok, "; ".join(detail))
    worst = max(distances, key=lambda t: t[0], default=(0.0, None, None))
    _check(checks, "corpus_analytic_vs_numeric_ranges", worst[0] < 5e-3,
           "max {:.2e} at {} k={}; bound 5e-3".format(*worst))

    # perturbed instance: classification and divisibility must fail together
    xi = (1.0, 0.0, 1.0 + 1e-3)
    rep = classify(xi, tol=cfg.tolerance)
    found = brute_force_decompositions(xi, tol=cfg.tolerance)
    _check(checks, "perturbed_consistency", verdict_matches_oracle(rep, found),
           f"verdict {rep.verdict}, decompositions {sorted(found)}")

    # random classification agreement + flip invariance
    disagree, flip_ok = [], True
    for n in dims:
        draws = [rng.uniform(0.0, 2.5, n - 1).tolist() for _ in range(100)]
        for xi, found in zip(draws, brute_force_batch(draws, tol=cfg.tolerance)):
            rep = classify(xi, tol=cfg.tolerance)
            if not verdict_matches_oracle(rep, found):
                disagree.append(f"{xi}: classify {rep.verdict}, divisibility {sorted(found)}")
            rev = classify(list(reversed(xi)), tol=cfg.tolerance)
            if rev.verdict != rep.verdict:
                flip_ok = False
    _check(checks, "random_criterion_vs_divisibility", not disagree,
           "; ".join(disagree) or f"{100 * len(dims)} draws agree")
    _check(checks, "flip_invariance", flip_ok, "")

    # drop-shaped curve: tangent events and non-elliptical components
    events = detect_multiple_tangents((0.5, 0.0, 0.5, 0.0))
    ords = sorted(e.ordinate for e in events)
    tangent_ok = len(events) == 2 and abs(ords[1] - math.sqrt(0.5)) < 1e-9
    m = matrix_from_xi((0.5, 0.0, 0.5, 0.0))
    comps = [c for c in curve_components(envelope_points(m, cfg.grid)) if c["kind"] == "loop"]
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
    _emit(cfg, out)
    return 0 if failures == 0 else 4


def build_parser():
    ap = argparse.ArgumentParser(
        prog="reciprange",
        description="Curves and rank-k numerical ranges of reciprocal tridiagonal matrices",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("classify", "classify the curve into elliptical components"),
        ("curve", "sample the curve and export JSON/SVG"),
        ("range", "compute a rank-k numerical range"),
        ("verify", "run the cross-validation battery"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--xi", help="comma-separated xi values")
        p.add_argument("--matrix", dest="matrix_path", help="JSON matrix file")
        p.add_argument("--n", type=int, help="expected dimension")
        p.add_argument("--k", type=int, help="rank index")
        p.add_argument("--grid", type=int, default=2048, help=f"theta grid size, {MIN_GRID}..{MAX_GRID}")
        p.add_argument("--mode", choices=("float", "exact", "extended"), default="float")
        p.add_argument("--svg", help="write an SVG figure here")
        p.add_argument("--out", help="write JSON output here (default stdout)")
        p.add_argument("--tolerance", type=float, default=CLI_DEFAULT_TOL,
                       help="criterion match tolerance")
        p.add_argument("--seed", type=int, default=0, help="rng seed (verify)")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    xi = None
    if ns.xi is not None:
        try:
            xi = tuple(float(v) for v in ns.xi.split(","))
        except ValueError:
            print(f"error: cannot parse --xi {ns.xi!r}", file=sys.stderr)
            return 2
    try:
        cfg = RunConfig(
            command=ns.command,
            xi=xi,
            matrix_path=ns.matrix_path,
            n=ns.n,
            k=ns.k,
            grid=ns.grid,
            mode=ns.mode,
            svg=ns.svg,
            out=ns.out,
            tolerance=ns.tolerance,
            seed=ns.seed,
        )
        handler = {
            "classify": cmd_classify,
            "curve": cmd_curve,
            "range": cmd_range,
            "verify": cmd_verify,
        }[cfg.command]
        return handler(cfg)
    except UnsupportedDimensionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InvalidInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
