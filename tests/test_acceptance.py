"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances are pinned here and match the package-wide defaults: equality 1e-9,
caption-grade inputs 1e-6, region cross-validation 5e-3 at default grids.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import FIG1, FIG2, FIG3, FIG4, FIG5, PHI, SQRT3
from geometry_oracle import hausdorff_point_sets
from poly_oracle import divides_linear
from reciprange.concentric6 import (
    audit_concentric_criterion,
    evaluate_criterion,
    find_concentric_instance,
)
from reciprange.conics import best_fit_ellipse_residual, conic_sampson_residuals
from reciprange.ellipses import (
    ALL_CONCENTRIC,
    DISPLACED_PAIR,
    MIXED_NONE,
    XP_TABLE,
    brute_force_decompositions,
    classify,
    verdict_matches_oracle,
)
from reciprange.geometry import EMPTY, POINT, region_contains_region
from reciprange.kippenhahn import (
    build_poly_from_scalars,
    closed_form_poly,
    curve_components,
    detect_multiple_tangents,
    determinant_poly_eval,
    envelope_points,
)
from reciprange.matrices import exact_spectrum, matrix_from_xi
from reciprange.numberfield import PHI as PHI_X
from reciprange.ranges import rank_k_analytic, rank_k_numeric, region_distance

K17 = 2 * math.cos(math.pi / 7)
K37 = 2 * math.cos(3 * math.pi / 7)


def test_criterion_1_golden_ratio_concentric():
    t0 = time.perf_counter()
    rep = classify([1.0, 1.0, 1.0])
    assert rep.verdict == ALL_CONCENTRIC
    assert abs(rep.ellipses[0].minor_half_axis - PHI) < 1e-9
    assert abs(rep.ellipses[1].minor_half_axis - 1 / PHI) < 1e-9

    # exact-mode divisibility with identically zero remainder
    P = build_poly_from_scalars([Fraction(1)] * 3, Fraction(1))
    q = divides_linear(P, PHI_X * PHI_X, PHI_X * PHI_X, tol=0)
    assert q is not None
    inv = PHI_X - 1
    q2 = divides_linear(q, inv * inv, inv * inv, tol=0)
    assert q2 is not None and q2.degree == 0
    rep_exact = classify([Fraction(1)] * 3, mode="exact")
    assert rep_exact.verdict == ALL_CONCENTRIC
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - con4 axes phi/1:phi to 1e-9, exact remainder zero, {elapsed:.3f}s")


def test_criterion_2_displaced_pair():
    rep = classify([1.0, 0.0, 1.0])
    assert rep.criterion == "noncon4"
    e = rep.ellipses[0]
    assert abs(e.center - 0.5) < 1e-9
    assert abs(e.half_focal - math.sqrt(5) / 2) < 1e-9
    assert abs(e.minor_half_axis - 1.0) < 1e-9

    samples = envelope_points(matrix_from_xi([1.0, 0.0, 1.0]), 2048)
    pts = np.array([s.point for s in samples])
    # the ellipses (x -+ 1/2)^2 / (9/4) + y^2 = 1 (major half-axis sqrt(1 + 5/4)),
    # times 9: 4x^2 + 9y^2 -+ 4x - 8 = 0
    r_plus = conic_sampson_residuals(pts, (4.0, 0.0, 9.0, -4.0, 0.0, -8.0))
    r_minus = conic_sampson_residuals(pts, (4.0, 0.0, 9.0, 4.0, 0.0, -8.0))
    worst = float(np.max(np.minimum(r_plus, r_minus)))
    assert worst < 1e-8
    print(f"\nACCEPTANCE 2: PASS - noncon4 p=1/2 X=sqrt5/2 c=1, envelope residual {worst:.2e} < 1e-8")


def test_criterion_3_n5_elliptical():
    xi = list(FIG2)
    rep = classify(xi)
    assert rep.criterion == "noncon5"
    minor_axis = 2 * rep.ellipses[0].minor_half_axis
    assert abs(minor_axis - (1 + SQRT3) * math.sqrt(xi[1] + xi[2])) < 1e-9

    m = matrix_from_xi(xi)
    d = region_distance(rank_k_analytic(rep, 2), rank_k_numeric(m, 2, 2048))
    assert d < 5e-3
    l3 = rank_k_numeric(m, 3, 2048)
    assert l3.kind == POINT and abs(l3.points[0]) < 1e-8
    print(f"\nACCEPTANCE 3: PASS - noncon5 minor axis (1+sqrt3), L2 hausdorff {d:.2e}, L3 = {{0}}")


def test_criterion_4_n5_drop_shaped():
    xi = list(FIG1)
    ords = sorted(detect_multiple_tangents(xi))
    assert_allclose(ords, [-math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)
    rep = classify(xi)
    assert rep.verdict == MIXED_NONE

    comps = curve_components(envelope_points(matrix_from_xi(xi), 2048))
    loops = [c for c in comps if c["kind"] == "loop"]
    assert len(loops) == 2
    residuals = [best_fit_ellipse_residual(c["points"]) for c in loops]
    assert all(r > 1e-3 for r in residuals)
    print(f"\nACCEPTANCE 4: PASS - tangents at +-sqrt(0.5), MIXED_NONE, drop fit residuals "
          f"{[f'{r:.2e}' for r in residuals]} > 1e-3")


def test_criterion_5_n6_figures():
    expected = {
        "fig3": (list(FIG3), "de1", None, XP_TABLE["vi"]),
        "fig4": (list(FIG4), "de3", K37, XP_TABLE["vi"]),
        "fig5": (list(FIG5), "de3", K17, XP_TABLE["ii"]),
    }
    details = []
    for name, (xi, crit, kval, (X0, X, p)) in expected.items():
        rep = classify(xi, tol=1e-6)
        assert rep.criterion == crit, name
        if kval is not None:
            assert abs(rep.k - kval) < 1e-5, name
        central = next(e for e in rep.ellipses if e.center == 0)
        plus = next(e for e in rep.ellipses if e.center > 0)
        assert abs(central.half_focal - X0) < 1e-6, name
        assert abs(plus.half_focal - X) < 1e-6, name
        assert abs(plus.center - p) < 1e-6, name

        m = matrix_from_xi(xi)
        numeric = []
        for k in (1, 2, 3):
            ra = rank_k_analytic(rep, k)
            rn = rank_k_numeric(m, k, 2048)
            assert region_distance(ra, rn) < 5e-3, (name, k)
            numeric.append(rn)
        assert region_contains_region(numeric[0], numeric[1], tol=1e-8), name
        assert region_contains_region(numeric[1], numeric[2], tol=1e-8), name
        details.append(f"{name}:{crit}/{rep.table_row}")
    print(f"\nACCEPTANCE 5: PASS - {' '.join(details)}, (X0,X,p) to 1e-6, chain inclusion holds")


def _structured_draws(n, rng, count):
    """Family members (exact to roundoff) plus 1e-3 perturbations."""
    phi = PHI
    draws = []
    while len(draws) < count:
        r = rng.uniform(0.1, 2.0, 4)
        if n == 4:
            x1, x3 = r[0], r[1]
            x2 = phi * x1 - x3 / phi
            if x2 >= 0:
                draws.append([x1, x2, x3])
            draws.append([r[2], 0.0, r[2]])
        elif n == 5:
            draws.append([r[0], r[1], r[2], r[0]])
            x1, x4 = r[0], r[1]
            x3 = r[2]
            x2 = x3 - (x1 - x4) / 2
            if x2 >= 0:
                draws.append([x1, x2, x3, x4])
            s = r[3]
            draws.append([SQRT3 / 2 * s + s, 0.0, s, SQRT3 / 2 * s])  # noncon5, xi2 = 0
        else:
            t = r[0]
            draws.append([t, 2 * t * math.cos(2 * math.pi / 7), 0.0,
                          2 * t * math.cos(2 * math.pi / 7), t])  # de1
            for kv in (K17, K37):
                draws.append([kv * t, (kv - 1) ** 2 * t, kv * t, 0.0, t])  # de3
                draws.append([t, 0.0, kv * t, (kv - 1) ** 2 * t, kv * t])  # de2
        if draws and rng.uniform() < 0.4:
            base = list(draws[-1])
            j = rng.integers(0, n - 1)
            base[j] = max(0.0, base[j] + rng.choice([-1e-3, 1e-3]))
            draws.append(base)
    return [d for d in draws[:count]]


def test_criterion_6_oracle_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(617)
    per_n = 2000
    worst_poly, worst_spec, worst_sym = 0.0, 0.0, 0.0
    disagreements = 0
    flip_failures = 0
    for n in (4, 5, 6):
        draws = [list(rng.uniform(0.0, 2.5, n - 1)) for _ in range(per_n - per_n // 4)]
        draws += _structured_draws(n, rng, per_n // 4)

        # closed form vs determinant recurrence
        for xi in draws[:: max(1, len(draws) // 700)]:
            m = matrix_from_xi(xi)
            P = closed_form_poly(xi)
            for _ in range(3):
                th = rng.uniform(0, 2 * math.pi)
                lam = rng.uniform(-3, 3)
                d = determinant_poly_eval(m, th, lam)
                v = P(lam * lam, math.cos(th) ** 2) * (-lam if n % 2 else 1)
                worst_poly = max(worst_poly, abs(d - v) / max(1.0, abs(d), abs(v)))

        # criterion verdict vs brute-force divisibility + flip invariance
        for xi in draws:
            rep = classify(xi)
            if not verdict_matches_oracle(rep, brute_force_decompositions(xi)):
                disagreements += 1
            rev = classify(list(reversed(xi)))
            mirrored = {"de2": "de3", "de3": "de2"}
            if rev.verdict != rep.verdict or rev.criterion != mirrored.get(
                rep.criterion, rep.criterion
            ):
                flip_failures += 1

        # spectrum formula with random phases (stacked)
        xis = np.array(draws[:500], dtype=float)
        a = np.sqrt(xis) + np.sqrt(xis + 1)
        a = a * np.exp(1j * rng.uniform(0, 2 * np.pi, a.shape))
        A = np.zeros((len(xis), n, n), dtype=complex)
        idx = np.arange(n - 1)
        A[:, idx, idx + 1] = a
        A[:, idx + 1, idx] = 1 / a
        ev = np.sort(np.linalg.eigvals(A).real, axis=1)
        ex = np.sort(exact_spectrum(n))
        worst_spec = max(worst_spec, float(np.max(np.abs(ev - ex[None, :]))))

        # curve symmetry under conjugation and negation (grid 32, stacked)
        grid = 32
        thetas = np.linspace(0, 2 * np.pi, grid, endpoint=False)
        ph = np.exp(1j * thetas)
        sub = A[:200]
        H = 0.5 * (ph[None, :, None, None] * sub[:, None] +
                   np.conj(ph)[None, :, None, None] * np.conj(np.swapaxes(sub, 1, 2))[:, None])
        H = H.reshape(-1, n, n)
        w, V = np.linalg.eigh(H)
        AV = np.einsum("mij,mjk->mik", np.repeat(sub, grid, axis=0), V)
        z = np.einsum("mij,mij->mj", np.conj(V), AV).reshape(len(sub), grid * n)
        for row in z:
            worst_sym = max(worst_sym, hausdorff_point_sets(row, np.conj(row)))
            worst_sym = max(worst_sym, hausdorff_point_sets(row, -row))

    elapsed = time.perf_counter() - t0
    assert worst_poly < 1e-9
    assert disagreements == 0
    assert worst_spec < 1e-9
    assert flip_failures == 0
    assert worst_sym < 1e-8
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6: PASS - poly dev {worst_poly:.1e}, 0 disagreements, spectrum "
          f"{worst_spec:.1e}, symmetry {worst_sym:.1e}, {elapsed:.1f}s < 60s")


def test_criterion_7_emptiness_and_origin():
    rng = np.random.default_rng(717)
    checked = 0
    for n, ks in ((4, (3, 4)), (5, (4, 5)), (6, (4, 5, 6))):
        for _ in range(200):
            m = matrix_from_xi(rng.uniform(0.05, 2.5, n - 1))
            for k in ks:
                assert rank_k_numeric(m, k, 128).kind == EMPTY, (n, k)
                checked += 1
            if n == 5:
                r3 = rank_k_numeric(m, 3, 128)
                assert r3.kind == POINT and abs(r3.points[0]) < 1e-8
    print(f"\nACCEPTANCE 7: PASS - {checked} empty ranges for k > (n+1)/2; L3 = {{0}} for n=5")


def test_criterion_8_concentric_audit():
    audit = audit_concentric_criterion()
    assert audit["reconstructed_coefficient"] == Fraction(-41)
    assert audit["confirmed"] is True

    xi, t = find_concentric_instance(seed=8)
    vals = evaluate_criterion(xi)
    assert max(abs(v) for v in vals) < 1e-9 * max(1.0, max(xi)) ** 3
    for tau in (0.1, 1.0, 10.0):
        rep = classify([tau * v for v in xi])
        assert rep.criterion == "3conel", tau
        cs = [e.minor_half_axis for e in rep.ellipses]
        assert cs == sorted(cs, reverse=True)
        assert_allclose(cs, [math.sqrt(tau * v) for v in t], rtol=1e-6)
    print(f"\nACCEPTANCE 8: PASS - coefficient -41 confirmed by the exact oracle; instance "
          f"xi={np.round(xi, 5).tolist()} decomposes with ordered axes across t in {{0.1,1,10}}")
