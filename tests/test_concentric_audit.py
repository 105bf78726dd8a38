"""The n = 6 concentric-triple criterion: exact derivation and audit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from reciprange.concentric6 import (
    audit_concentric_criterion,
    candidate_axes,
    derive_rational_criterion,
    evaluate_criterion,
    find_concentric_instance,
    quoted_criterion,
)
from numberfield_oracle import oracle_derive_rational_criterion
from reciprange.ellipses import classify
from reciprange.kippenhahn import closed_form_poly
from reciprange.bipoly import linear_factor


def test_exact_axes_for_all_ones():
    t, residuals = candidate_axes([Fraction(1)] * 5, exact=True)
    for j, tj in enumerate(t):
        # the squared axes are exactly 4 cos^2((j+1) pi/7)
        assert abs(float(tj) - 4 * math.cos((j + 1) * math.pi / 7) ** 2) < 1e-14
    for r in residuals:
        assert not r, "all-ones parameters satisfy the criterion exactly"


def test_derived_system_is_rational_and_proportional_to_quoted():
    G2a, G2b, G3 = derive_rational_criterion()
    q1, q2, q3 = quoted_criterion()
    assert {m: c * 7 for m, c in G2a.items()} == q1
    assert {m: c * 7 for m, c in G2b.items()} == q2
    assert {m: c * 49 for m, c in G3.items()} == q3


def test_derived_system_matches_the_dict_helper_oracle():
    derived = derive_rational_criterion()
    assert derived == oracle_derive_rational_criterion()
    assert all(type(c) is Fraction for g in derived for c in g.values())
    # rebuilt on every call: a caller mutating one result leaves the next intact
    derived[2].clear()
    assert derive_rational_criterion() == oracle_derive_rational_criterion()
    assert audit_concentric_criterion()["derived_system"] == oracle_derive_rational_criterion()


def test_audit_confirms_printed_coefficient():
    res = audit_concentric_criterion()
    assert res["confirmed"] is True
    assert res["reconstructed_coefficient"] == Fraction(-41)
    assert res["quadratic_scale_factors"] == (Fraction(7), Fraction(7))
    assert res["cubic_scale_factor"] == Fraction(49)


def test_instance_satisfies_quoted_system_and_divides():
    xi, t = find_concentric_instance(seed=5)
    vals = evaluate_criterion(xi)
    scale = max(1.0, max(xi)) ** 3
    assert max(abs(v) for v in vals) < 1e-9 * scale
    # wrong coefficient would not vanish
    wrong = evaluate_criterion(xi, third_eq_coefficient=Fraction(-4))
    assert abs(wrong[2]) > 1e-3 * scale

    # full divisibility: P6 = prod of the three linear factors
    P = closed_form_poly(list(xi))
    q = P.poly
    for sj, tj in zip(
        [4 * math.cos(j * math.pi / 7) ** 2 for j in (1, 2, 3)], t
    ):
        q, r = q.divmod_monic(linear_factor(sj, tj, one=1.0))
        assert max(abs(c) for cs in r.coeffs for c in cs) < 1e-8


def test_instance_classification_and_scaling():
    xi, t = find_concentric_instance(seed=5)
    for tau in (0.1, 1.0, 10.0):
        r = classify([tau * v for v in xi])
        assert r.criterion == "3conel"
        cs = [e.minor_half_axis for e in r.ellipses]
        assert cs == sorted(cs, reverse=True)  # c1 >= c2 >= c3
        assert_allclose(cs, [math.sqrt(tau * v) for v in t], rtol=1e-6)


def test_float_axes_match_exact():
    xi = [0.9, 1.3, 0.4, 2.0, 0.7]
    tf, rf = candidate_axes(xi)
    te, re_ = candidate_axes([Fraction(v).limit_denominator(10**9) for v in xi], exact=True)
    assert_allclose(tf, [float(v) for v in te], rtol=1e-9)
    assert_allclose(rf, [float(v) for v in re_], rtol=1e-6, atol=1e-12)
