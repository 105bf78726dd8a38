import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import FIG1, FIG2, FIG3, FIG4, FIG5, PHI, SQRT3
from dense_oracle import hermitian_parts
from reciprange import ellipses
from reciprange.ellipses import (
    ALL_CONCENTRIC,
    DEGENERATE_SPECTRUM,
    DISPLACED_PAIR,
    MIXED_NONE,
    XP_TABLE,
    _divide,
    brute_force_batch,
    brute_force_decompositions,
    classify,
    verdict_matches_oracle,
)
from geometry_oracle import ellipse_region
from poly_oracle import divides_linear, divides_quadratic, minor_axis_candidates, oracle_brute_force
from reciprange.bipoly import ZetaPoly, linear_factor, quadratic_factor
from reciprange.errors import InvalidInputError, UnsupportedDimensionError
from reciprange.geometry import intersect_regions, region_contains_region
from reciprange.kippenhahn import build_poly_from_scalars, closed_form_poly
from reciprange.matrices import MAX_XI, exact_spectrum, matrix_from_xi
from reciprange.ranges import pencil_values

K17 = 2 * math.cos(math.pi / 7)
K37 = 2 * math.cos(3 * math.pi / 7)


# --- divisibility ---

def test_divides_linear_con4_ones():
    P = closed_form_poly([1.0, 1.0, 1.0])
    q = divides_linear(P, PHI**2, PHI**2)
    assert q is not None
    q2 = divides_linear(q, PHI**-2, PHI**-2)
    assert q2 is not None and q2.degree == 0


def test_divides_linear_n5_zero_xi():
    P = closed_form_poly([0.0] * 4)
    assert divides_linear(P, 1.0, 0.0) is not None  # zeta - rho


def test_divides_linear_failure():
    P = closed_form_poly([1.0, 0.0, 1.0])
    assert divides_linear(P, 1.0, 1.0) is None


def test_divides_quadratic_noncon4():
    P = closed_form_poly([1.0, 0.0, 1.0])
    q = divides_quadratic(P, 0.5, math.sqrt(5) / 2, 1.0)
    assert q is not None and q.degree == 0


def test_divides_quadratic_noncon5_exact_params():
    P = closed_form_poly(list(FIG2))
    q = divides_quadratic(P, (SQRT3 - 1) / 2, (SQRT3 + 1) / 2, math.sqrt(FIG2[0]))
    assert q is not None and q.degree == 0


def test_divides_quadratic_fails_for_drop():
    P = closed_form_poly(list(FIG1))
    for p, X in [((SQRT3 - 1) / 2, (SQRT3 + 1) / 2), ((SQRT3 + 1) / 2, (SQRT3 - 1) / 2)]:
        for c_sq in (0.5, 1.0, FIG1[0]):
            assert divides_quadratic(P, p, X, math.sqrt(c_sq)) is None


def test_exact_division_zero_remainder():
    P = build_poly_from_scalars([Fraction(1)] * 3, Fraction(1))
    from reciprange.numberfield import PHI as PHI_EXACT

    q = divides_linear(P, PHI_EXACT * PHI_EXACT, PHI_EXACT * PHI_EXACT, tol=0)
    assert q is not None
    q2 = divides_linear(q, (PHI_EXACT - 1) * (PHI_EXACT - 1), (PHI_EXACT - 1) * (PHI_EXACT - 1), tol=0)
    assert q2 is not None


def test_divides_linear_tol_zero_means_exact():
    # classify's division: tol = 0 (exact mode) asks for a zero remainder,
    # whatever the coefficient type; any other tol is a threshold
    tiny = Fraction(1, 2**60)
    # zeta - (rho + 1) plus a constant remainder of 2^-60
    P = ZetaPoly([[Fraction(-1) + tiny, Fraction(-1)], [Fraction(1)]])
    factor = linear_factor(Fraction(1), Fraction(1), one=Fraction(1))
    assert _divide(P, factor, P.max_abs_coeff(), tol=0) is None
    q = _divide(P, factor, P.max_abs_coeff(), tol=1e-9)
    assert q is not None and q.coeffs == [[Fraction(1)]]


# --- classification ---

def test_classify_con4_both_branches():
    r = classify([1.0, 1.0, 1.0])
    assert r.verdict == ALL_CONCENTRIC and r.criterion == "con4" and r.k == [1, 2]
    assert r.ellipses[0].minor_half_axis == pytest.approx(PHI)
    assert r.ellipses[1].minor_half_axis == pytest.approx(1 / PHI)
    assert r.ellipses[0].half_focal == pytest.approx(PHI)


def test_classify_noncon4():
    r = classify([1.0, 0.0, 1.0])
    assert r.verdict == DISPLACED_PAIR and r.criterion == "noncon4"
    e = r.ellipses[0]
    assert e.center == pytest.approx(0.5)
    assert e.half_focal == pytest.approx(math.sqrt(5) / 2)
    assert e.minor_half_axis == pytest.approx(1.0)
    assert sorted(e.foci) == pytest.approx([-1 / PHI, PHI])


def test_classify_ext_degenerate_inner():
    r = classify([1.0, PHI, 0.0])
    assert r.verdict == ALL_CONCENTRIC
    assert r.ellipses[1].degenerate
    assert r.ellipses[1].foci == pytest.approx((-1 / PHI, 1 / PHI))


def test_classify_all_zero():
    for n in (4, 5, 6):
        assert classify([0.0] * (n - 1)).verdict == DEGENERATE_SPECTRUM


def test_classify_unknown_mode():
    for mode in ("bogus", ["float"], None):
        with pytest.raises(InvalidInputError):
            classify([1.0, 1.0, 1.0], mode=mode)


def test_classify_unsupported_n():
    for n in (2, 3, 7):
        with pytest.raises(UnsupportedDimensionError):
            classify([1.0] * (n - 1))


def test_classify_con5_branches():
    r = classify([0.7, 0.3, 1.1, 0.7])
    assert r.verdict == ALL_CONCENTRIC and r.criterion == "con5" and r.k == 1
    r = classify([1.5, 0.4, 0.9, 0.5])
    assert r.criterion == "con5" and r.k == 2
    assert r.ellipses[0].minor_half_axis == pytest.approx(math.sqrt(0.4 + 0.9 + 1.0))
    assert r.ellipses[1].minor_half_axis == pytest.approx(1.0)
    assert r.ellipses[0].half_focal == pytest.approx(SQRT3)
    assert r.ellipses[1].half_focal == pytest.approx(1.0)


def test_classify_noncon5_fig2():
    r = classify(list(FIG2))
    assert r.verdict == DISPLACED_PAIR and r.criterion == "noncon5"
    assert 2 * r.ellipses[0].minor_half_axis == pytest.approx(1 + SQRT3)
    assert sorted(r.ellipses[0].foci) == pytest.approx([-1.0, SQRT3])
    assert sorted(r.ellipses[1].foci) == pytest.approx([-SQRT3, 1.0])
    assert r.origin_component


def test_classify_drop_is_mixed_none():
    assert classify(list(FIG1)).verdict == MIXED_NONE


def _split(rep):
    """The report's origin-centered components, then its displaced ones."""
    return ([e for e in rep.ellipses if e.center == 0], [e for e in rep.ellipses if e.center != 0])


def test_classify_de1_fig3():
    r = classify(list(FIG3), tol=1e-6)
    assert r.criterion == "de1" and r.table_row == "vi"
    (central,), pair = _split(r)
    assert central.degenerate
    assert central.half_focal == pytest.approx(K37, abs=1e-9)
    assert pair[0].minor_half_axis == pytest.approx(math.sqrt(FIG3[0] + FIG3[1]), abs=1e-6)


def test_classify_de3_fig4_fig5():
    r = classify(list(FIG4), tol=1e-6)
    assert r.criterion == "de3" and r.table_row == "vi"
    assert r.k == pytest.approx(K37, abs=1e-5)
    # displaced minor half-axis sqrt(xi5); central k*sqrt(xi5)
    (central,), pair = _split(r)
    assert pair[0].minor_half_axis == pytest.approx(math.sqrt(FIG4[4]), abs=1e-6)
    assert central.minor_half_axis == pytest.approx(K37 * math.sqrt(FIG4[4]), abs=1e-6)

    r = classify(list(FIG5), tol=1e-6)
    assert r.criterion == "de3" and r.table_row == "ii"
    assert r.k == pytest.approx(K17, abs=1e-5)
    (central,), pair = _split(r)
    assert central.minor_half_axis > pair[0].minor_half_axis  # outer central


def test_classify_de2_is_flip_of_de3():
    r = classify(list(reversed(FIG4)), tol=1e-6)
    assert r.criterion == "de2" and r.table_row == "vi"


def test_classify_3conel_ones():
    r = classify([1.0] * 5)
    assert r.verdict == ALL_CONCENTRIC and r.criterion == "3conel"
    for j, e in enumerate(r.ellipses):
        assert e.half_focal == pytest.approx(2 * math.cos((j + 1) * math.pi / 7))
        assert e.minor_half_axis == pytest.approx(2 * math.cos((j + 1) * math.pi / 7))


def test_classify_exact_mode():
    assert classify([Fraction(1)] * 3, mode="exact").criterion == "con4"
    assert classify([Fraction(1), Fraction(0), Fraction(1)], mode="exact").criterion == "noncon4"
    assert classify([Fraction(1)] * 5, mode="exact").criterion == "3conel"
    assert classify([Fraction(1), Fraction(2), Fraction(1)], mode="exact").verdict == MIXED_NONE


def test_classify_extended_mode():
    assert classify([Fraction(1)] * 5, mode="extended", tol=1e-40).criterion == "3conel"
    assert classify(list(FIG2), mode="extended").criterion == "noncon5"


def test_extended_mode_leaves_caller_mpmath_precision_alone():
    cases = [([1.0, 1.0, 1.0], "con4"), ([1.0, 0.0, 1.0], "noncon4"), (list(FIG2), "noncon5"),
             (list(FIG3), "de1"), (list(FIG4), "de3"), ([1.0] * 5, "3conel"), ([1.0, 2.0, 1.0], None)]
    saved = mpmath.mp.dps
    try:
        mpmath.mp.dps = 5
        for xi, criterion in cases:
            assert classify(xi, mode="extended", tol=1e-6).criterion == criterion
            assert mpmath.mp.dps == 5
    finally:
        mpmath.mp.dps = saved
    classify([1.0] * 5, mode="extended")
    assert mpmath.mp.dps == saved


def test_foci_lie_in_spectrum():
    for xi in ([1.0, 1.0, 1.0], [1.0, 0.0, 1.0], list(FIG2), list(FIG4), [1.0] * 5):
        r = classify(xi, tol=1e-6)
        spec = np.array(exact_spectrum(r.n))
        for e in r.ellipses:
            for f in e.foci:
                assert np.min(np.abs(spec - f)) < 1e-6, (xi, f)


def test_major_axis_dominates_minor():
    for xi in ([1.0, 1.0, 1.0], list(FIG2), [1.0] * 5):
        for e in classify(xi).ellipses:
            assert e.major_half_axis >= e.minor_half_axis


def test_concentric_nesting():
    for xi in ([1.0, 1.0, 1.0], [0.7, 0.3, 1.1, 0.7], [1.0] * 5):
        r = classify(xi)
        assert r.verdict == ALL_CONCENTRIC
        for outer, inner in zip(r.ellipses, r.ellipses[1:]):
            assert outer.minor_half_axis >= inner.minor_half_axis - 1e-12
            assert outer.major_half_axis >= inner.major_half_axis - 1e-12


def test_displaced_pairs_overlap():
    for xi, tol in (([1.0, 0.0, 1.0], 1e-9), (list(FIG2), 1e-9), (list(FIG4), 1e-6)):
        r = classify(xi, tol=tol)
        assert r.verdict == DISPLACED_PAIR
        plus, minus = _split(r)[1]
        lens = intersect_regions(
            ellipse_region(plus.center, plus.half_focal, plus.minor_half_axis, 512),
            ellipse_region(minus.center, minus.half_focal, minus.minor_half_axis, 512),
        )
        assert lens.kind == "POLYGON"


def test_flip_invariance_of_classify(rng):
    structured = [
        [1.0, 1.0, 1.0], [1.0, 0.0, 1.0], list(FIG2), list(FIG1), [1.0] * 5,
        list(FIG4), list(reversed(FIG4)),
    ]
    for _ in range(60):
        n = rng.choice([4, 5, 6])
        structured.append(list(rng.uniform(0, 2.5, n - 1)))
    for xi in structured:
        a = classify(xi, tol=1e-6)
        b = classify(list(reversed(xi)), tol=1e-6)
        assert a.verdict == b.verdict, xi
        mirrored = {"de2": "de3", "de3": "de2"}
        expect = mirrored.get(a.criterion, a.criterion)
        assert b.criterion == expect, xi
        # the curve itself is flip-invariant: identical ellipse multisets
        ea = sorted((round(e.center, 8), round(e.half_focal, 8), round(e.minor_half_axis, 8))
                    for e in a.ellipses)
        eb = sorted((round(e.center, 8), round(e.half_focal, 8), round(e.minor_half_axis, 8))
                    for e in b.ellipses)
        assert ea == eb, xi


def test_3conel_homogeneity():
    from reciprange.concentric6 import find_concentric_instance

    xi, _ = find_concentric_instance(seed=11)
    for t in (0.1, 1.0, 10.0):
        r = classify([t * v for v in xi])
        assert r.criterion == "3conel", t
        base = classify(list(xi))
        for e, e0 in zip(r.ellipses, base.ellipses):
            assert e.minor_half_axis == pytest.approx(math.sqrt(t) * e0.minor_half_axis, rel=1e-7)


@pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-2])
def test_degree_two_and_three_tests_measure_xi_units_below_unit_scale(t):
    # the 3conel residuals and the noncon5 product xi2 xi3 have degree 2 or 3:
    # below unit scale they are compared in xi's units, as the oracle measures
    from reciprange.concentric6 import find_concentric_instance

    off = [t, 0.0, t, t, t]  # (1, 0, 1, 1, 1) is MIXED_NONE, residual 0.14
    assert classify(off).verdict == MIXED_NONE
    assert brute_force_decompositions(off) == set()
    a, b = t, 2 * t  # xi2 xi3 = 2 t^2, neither is 0
    off = [SQRT3 / 2 * (a + b) + b, a, b, SQRT3 / 2 * (a + b) + a]
    assert classify(off).verdict == MIXED_NONE
    assert brute_force_decompositions(off) == set()
    xi, _ = find_concentric_instance(seed=11)
    on = [t * v for v in xi]
    assert classify(on).criterion == classify(on, mode="extended").criterion == "3conel"
    assert brute_force_decompositions(on) == {"concentric"}
    on = [SQRT3 / 2 * t + t, 0.0, t, SQRT3 / 2 * t]
    assert classify(on).criterion == classify(on, mode="extended").criterion == "noncon5"
    assert brute_force_decompositions(on) == {"displaced"}


@pytest.mark.parametrize("xi, tol, criterion", [
    ((1.0, 1e-12, 1.0), 1e-9, "noncon4"),
    ((SQRT3 / 2 * 0.7 + 0.7, 1e-12, 0.7, SQRT3 / 2 * 0.7), 1e-9, "noncon5"),
    ((0.801938, 1.0, 1e-9, 1.0, 0.801938), 1e-6, "de1"),
])
def test_oracle_finds_pairs_past_an_entry_within_tol_of_zero(xi, tol, criterion):
    # sqrt(xi_j) is an off-diagonal of Im A, so an entry eps off 0 splits the
    # pair's double eigenvalue by about sqrt(eps): far more than tol allows
    assert classify(xi, tol=tol).criterion == criterion
    assert brute_force_decompositions(xi, tol) == oracle_brute_force(xi, tol) == {"displaced"}


# --- the Xp solution table ---

def test_xp_table_rows():
    rows = [XP_TABLE[r] for r in ("i", "ii", "iii", "iv", "v", "vi")]
    assert len(XP_TABLE) == 6
    X0, X, p = rows[5]  # row (vi)
    assert X0 == pytest.approx(2 * math.cos(3 * math.pi / 7))
    assert X == pytest.approx(math.cos(math.pi / 7) + math.cos(2 * math.pi / 7))
    assert p == pytest.approx(math.cos(math.pi / 7) - math.cos(2 * math.pi / 7))
    for X0, X, p in rows:
        assert abs(X0**2 * (X**2 - p**2) ** 2 - 1) < 1e-12
        assert abs((X**2 - p**2) ** 2 + 2 * X0**2 * (X**2 + p**2) - 6) < 1e-12
        assert abs(X0**2 + 2 * (X**2 + p**2) - 5) < 1e-12


# --- the brute-force oracle ---

def test_oracle_agreement_structured():
    for xi in ([1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.5, 1.0], list(FIG1), list(FIG2),
               [1.0] * 5, list(FIG3), [0.7, 0.3, 1.1, 0.7], [0.0, 0.0, 0.0], [1.0, PHI, 0.0],
               # con5 with xi_2 close to xi_3: the variety is nearly tangent to
               # the c^2 directions, which rounding must not turn into distance
               [1.1671077620373191, 0.5207225532765101, 0.5207294883428578, 1.1671077620373191]):
        rep = classify(xi)
        found = brute_force_decompositions(xi)
        assert verdict_matches_oracle(rep, found), (xi, rep.verdict, found)


def test_oracle_agreement_perturbed():
    xi = (1.0, 0.0, 1.0 + 1e-3)
    rep = classify(xi)
    found = brute_force_decompositions(xi)
    assert rep.verdict == MIXED_NONE and not found


@given(st.sampled_from([4, 5, 6]), st.data())
def test_oracle_agreement_random(n, data):
    xi = data.draw(st.lists(st.floats(0, 2.5), min_size=n - 1, max_size=n - 1))
    rep = classify(xi)
    found = brute_force_decompositions(xi)
    assert verdict_matches_oracle(rep, found), (xi, rep.verdict, found)


@pytest.mark.parametrize("xi", [
    (1.8145491952665136, 1.9393076437559764, 1.6125877491519145),  # verify --n 4 --seed 27
    (1.4819315598896727, 1.5318015740382296, 1.4011974099565903),  # verify --n 4 --seed 1885715326
])
def test_oracle_measures_defect_in_xi(xi):
    # 3.0e-5 and 1.3e-5 off the con4 variety in xi: the division remainders
    # pass at 1e-6 times the coefficients of P_4, the Sampson distance does not
    assert classify(xi, tol=1e-6).verdict == MIXED_NONE
    assert brute_force_decompositions(xi, tol=1e-6) == set()
    assert classify(xi, tol=1e-4).verdict == ALL_CONCENTRIC
    assert brute_force_decompositions(xi, tol=1e-4) == {"concentric"}


def test_oracle_foci_leave_no_defect_where_they_fix_it(monkeypatch):
    # P_5 has zeta^1 rho coefficient -4 and zeta^0 rho^2 coefficient 3, and a
    # product of two concentric factors has -(X1^2 + X2^2) and X1^2 X2^2
    # there: both defects are 0 for the foci X^2 = 3, 1 of the spectrum,
    # whatever the xi and c^2.  Foci rounded to 12 digits left 4e-13 there
    factors = []
    sampson = ellipses._sampson_distance

    def spy(xi, fs, xi_tol):
        factors.append(fs)
        return sampson(xi, fs, xi_tol)

    monkeypatch.setattr(ellipses, "_sampson_distance", spy)
    xi = (1.167, 0.5207, 0.5207, 1.167)
    assert brute_force_decompositions(xi) == {"concentric"}
    P = closed_form_poly(xi)
    assert factors
    for fs in factors:
        defect = P - functools.reduce(ZetaPoly.__mul__, [build(c) for build, c in fs])
        for zeta, rho in ((0, 2), (1, 1)):
            assert abs(float(defect.coeffs[zeta][rho])) <= 1e-14 * float(P.max_abs_coeff())


# --- the batched oracle against the per-candidate search ---

ORACLE_TOLS = (0.0, 1e-9, 1e-6, 1e-4)
#: verify --n 4 at seeds 27 and 1885715326: 1e-5 off the con4 variety
NEAR_CON4 = [
    (1.8145491952665136, 1.9393076437559764, 1.6125877491519145),
    (1.4819315598896727, 1.5318015740382296, 1.4011974099565903),
]


@functools.cache
def _conel_base():
    from reciprange.concentric6 import find_concentric_instance

    return find_concentric_instance(seed=11)[0]


#: members of every criterion family, from two parameters in [0.2, 2]
FAMILIES = {
    4: [
        lambda t, s: (t + s, PHI * (t + s) - s / PHI, s),  # con4
        lambda t, s: (t, 0.0, t),  # noncon4
    ],
    5: [
        lambda t, s: (t, s, s + t, t),  # con5, first branch
        lambda t, s: (t + 1, s, s + (t + 0.5) / 2, 0.5),  # con5, second branch
        lambda t, s: (SQRT3 / 2 * t + t, 0.0, t, SQRT3 / 2 * t),  # noncon5
    ],
    6: [
        lambda t, s: tuple(t * v for v in _conel_base()),  # 3conel
        lambda t, s: (t, 2 * math.cos(2 * math.pi / 7) * t, 0.0, 2 * math.cos(2 * math.pi / 7) * t, t),  # de1
        *[lambda t, s, k=k: (t, 0.0, k * t, (k - 1) ** 2 * t, k * t) for k in (K17, K37)],  # de2
        *[lambda t, s, k=k: (k * t, (k - 1) ** 2 * t, k * t, 0.0, t) for k in (K17, K37)],  # de3
    ],
}


#: (n, member index, mode): every family in float and extended mode, and in exact
#: mode the noncon4 and first-branch con5 members, whose relations hold exactly in binary
PENCIL_CASES = [(n, i, mode) for mode in ("float", "extended") for n in FAMILIES for i in range(len(FAMILIES[n]))]
PENCIL_CASES += [(4, 1, "exact"), (5, 0, "exact")]


@pytest.mark.parametrize("n, i, mode", PENCIL_CASES)
@given(st.floats(0.2, 2.0), st.floats(0.2, 2.0), st.booleans(), st.sampled_from([1e-9, 1e-6]))
def test_pencil_identity_for_every_positive_report(n, i, mode, t, s, rev, tol):
    # the reported ellipses must reproduce the dense spectrum of the snapped matrix:
    # a swapped c, centre or slot misses by order 1
    xi = FAMILIES[n][i](t, s)
    rep = classify(xi[::-1] if rev else xi, mode=mode, tol=tol)
    assert rep.verdict in (ALL_CONCENTRIC, DISPLACED_PAIR), rep
    thetas = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    dense = np.linalg.eigvalsh(hermitian_parts(matrix_from_xi(rep.snapped_xi), thetas))
    assert np.max(np.abs(pencil_values(rep, thetas) - dense[:, ::-1])) <= 1e-12, rep


@st.composite
def _family_draws(draw, n):
    """A criterion-family member of dimension n, reversed or not, one entry pushed 0, 1e-5 or 1e-3 off."""
    member = draw(st.sampled_from(FAMILIES[n]))
    xi = list(member(draw(st.floats(0.2, 2.0)), draw(st.floats(0.2, 2.0))))
    if draw(st.booleans()):
        xi.reverse()
    j = draw(st.integers(0, n - 2))
    xi[j] = max(0.0, xi[j] + draw(st.sampled_from([0.0, 1e-5, -1e-5, 1e-3, -1e-3])))
    return xi


def _uniform_draws(n):
    """Uniform draws on [0, 2.5] with some entries zeroed."""
    return st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.5)), min_size=n - 1, max_size=n - 1)


def _draws(n):
    return st.one_of(_family_draws(n), _uniform_draws(n), st.just([0.0] * (n - 1)))


@given(st.sampled_from([4, 5, 6]), st.sampled_from(ORACLE_TOLS), st.data())
def test_batch_matches_oracle_on_uniform_draws(n, tol, data):
    draws = data.draw(st.lists(_uniform_draws(n), min_size=1, max_size=5))
    assert brute_force_batch(draws, tol) == [oracle_brute_force(xi, tol) for xi in draws]


@given(st.sampled_from([4, 5, 6]), st.sampled_from(ORACLE_TOLS), st.data())
def test_batch_matches_oracle_near_the_criteria(n, tol, data):
    draws = data.draw(st.lists(_family_draws(n), min_size=1, max_size=5))
    assert brute_force_batch(draws, tol) == [oracle_brute_force(xi, tol) for xi in draws]


@pytest.mark.parametrize("tol", ORACLE_TOLS)
def test_batch_matches_oracle_on_fixed_cases(tol):
    from reciprange.cli import SEED_CORPUS

    for n in (4, 5, 6):
        draws = [xi for xi in NEAR_CON4 if len(xi) == n - 1] + [(0.0,) * (n - 1)] + SEED_CORPUS[n]
        assert brute_force_batch(draws, tol) == [oracle_brute_force(xi, tol) for xi in draws], n


@given(st.sampled_from([4, 5, 6]), st.data())
def test_batch_equals_single_calls_in_any_order(n, data):
    # the zero vector has the single candidate c^2 = 0, so mixed batches pad with NaN
    draws = data.draw(st.lists(_draws(n), min_size=1, max_size=6))
    order = data.draw(st.permutations(range(len(draws))))
    singles = [brute_force_decompositions(xi, 1e-6) for xi in draws]
    assert brute_force_batch(draws, 1e-6) == singles
    assert brute_force_batch([draws[i] for i in order], 1e-6) == [singles[i] for i in order]


@given(st.sampled_from([4, 5, 6]), st.sampled_from(ORACLE_TOLS), st.data())
def test_minor_axis_candidates_pad_with_nan_only(n, tol, data):
    draws = data.draw(st.lists(_draws(n), min_size=1, max_size=6))
    c2 = ellipses._minor_axis_candidates(np.array(draws, dtype=float), tol)
    for row, xi in zip(c2, draws):
        want = minor_axis_candidates(xi, tol)
        assert row[: len(want)].tolist() == want
        assert np.isnan(row[len(want) :]).all()


def _rows(poly, depth, width):
    out = np.zeros((depth, width))
    for j, c in enumerate(poly.coeffs):
        out[j, : len(c)] = [float(v) for v in c]
    return out


def _assert_same_division(P, arr, factor, focus, c2s):
    """Divide the ZetaPoly ``P`` and its array ``arr`` by factor(*focus, c^2) for every
    c^2; |quotient| and |remainder| must agree bitwise.  Returns the quotient pairs."""
    low = ellipses._Level(factor, (focus,)).low_rows(np.array([c2s]))[0]
    quot, rem = ellipses._divide_monic(arr, low)
    out = []
    for c2, q_arr, r_arr in zip(c2s, quot, rem):
        q, r = P.divmod_monic(factor(*focus, c2))
        assert np.array_equal(np.abs(r_arr), np.abs(_rows(r, *r_arr.shape)))
        assert np.array_equal(np.abs(q_arr), np.abs(_rows(q, *q_arr.shape)))
        out.append((q, q_arr))
    return out


@given(st.sampled_from([4, 5, 6]), st.data())
def test_division_kernel_is_divmod_monic_bitwise(n, data):
    xi = data.draw(_draws(n))
    P = closed_form_poly(xi)
    arr = _rows(P, n // 2 + 1, n // 2 + 1)
    c2s = minor_axis_candidates(xi, 1e-6) + [data.draw(st.floats(0.0, 5.0))]
    spec = exact_spectrum(n)
    pos = [v for v in spec if v > 1e-15]
    for x in pos:  # two levels of concentric factors
        for q, q_arr in _assert_same_division(P, arr, linear_factor, (x * x,), c2s):
            for x2 in pos:
                _assert_same_division(q, q_arr, linear_factor, (x2 * x2,), c2s)
    for i, zi in enumerate(spec):  # displaced pairs, then a central factor
        for zj in spec[i + 1 :]:
            p, X = abs(zi + zj) / 2, (zi - zj) / 2
            for q, q_arr in _assert_same_division(P, arr, quadratic_factor, (X * X + p * p, X * X - p * p), c2s):
                if n == 6:
                    for x in pos:
                        _assert_same_division(q, q_arr, linear_factor, (x * x,), c2s)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
@pytest.mark.parametrize("mode", ["float", "exact", "extended"])
def test_classify_rejects_bad_tolerance(mode, tol):
    with pytest.raises(InvalidInputError, match="tolerance"):
        classify([1.0, 1.0, 1.0], mode=mode, tol=tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_oracle_rejects_bad_tolerance(tol):
    with pytest.raises(InvalidInputError, match="tolerance"):
        brute_force_decompositions([1.0, 1.0, 1.0], tol=tol)
    with pytest.raises(InvalidInputError, match="tolerance"):
        brute_force_batch([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]], tol=tol)


@pytest.mark.parametrize("a", [1e151, 1e155, 1e200])
def test_float_classify_refuses_xi_beyond_bound(a):
    # the products in float P_n overflow from about 1e155: (a, 0, a) read
    # MIXED_NONE there though it is noncon4, and (a, a, a) though it is con4
    for xi in ([a, 0.0, a], [a, a, a], [1.0, 0.0, 1.0, a]):
        with pytest.raises(InvalidInputError, match="exceeds 1e\\+150.*--mode exact"):
            classify(xi)


@pytest.mark.parametrize("a", [1e150, 1e155, 1e200])
def test_large_xi_verdicts(a):
    # float mode still takes MAX_XI itself; exact and extended mode take any xi
    modes = ("float", "exact", "extended") if a <= MAX_XI else ("exact", "extended")
    for mode in modes:
        assert classify([a, 0.0, a], mode=mode).verdict == DISPLACED_PAIR, mode
        assert classify([a, a, a], mode=mode).verdict == ALL_CONCENTRIC, mode


def test_zero_tolerance_stays_exact():
    assert classify([1.0, 0.0, 1.0], tol=0).verdict == DISPLACED_PAIR
    assert classify([1.0, 0.0, 1.0 + 1e-9], tol=0).verdict == MIXED_NONE


def test_batch_takes_one_dimension():
    assert brute_force_batch([]) == []
    with pytest.raises(InvalidInputError):
        brute_force_batch([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
    with pytest.raises(UnsupportedDimensionError):
        brute_force_batch([[1.0, 1.0]])


def test_report_json_schema():
    r = classify(list(FIG4), tol=1e-6)
    d = r.to_json_dict()
    assert set(d) == {"verdict", "criterion", "k", "table_row", "ellipses", "origin_component"}
    assert set(d["ellipses"][0]) == {"p", "X", "c", "foci", "degenerate"}
