"""Integer-form number-field arithmetic against the Fraction-based oracle."""

import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from numberfield_oracle import ORACLE_COS7, ORACLE_SQRT3, ORACLE_SQRT5
from reciprange.numberfield import COS7, PHI, ROOT3, SQRT3, SQRT5, TWO_COS_PI7

FIELDS = {"sqrt5": (SQRT5, ORACLE_SQRT5), "sqrt3": (SQRT3, ORACLE_SQRT3), "cos7": (COS7, ORACLE_COS7)}
OPS = [operator.add, operator.sub, operator.mul, operator.truediv]

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-100, max_value=100, max_denominator=64),
    st.fractions(max_denominator=10**12).map(lambda q: q * 10**9),
)


@st.composite
def element_coeffs(draw, count=1):
    """A field name and ``count`` coefficient lists of its degree."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    degree = FIELDS[name][0].degree
    return name, [draw(st.lists(rationals, min_size=degree, max_size=degree)) for _ in range(count)]


def both(name, coeffs):
    field, oracle = FIELDS[name]
    return field(*coeffs), oracle(*coeffs)


def same(a, oa):
    """``a`` equals the oracle element ``oa``: coefficients, repr and float bit for bit
    (the oracle's float is rounded once from 40 digits, so both are correctly rounded)."""
    assert a.coeffs == oa.coeffs
    assert all(type(c) is Fraction for c in a.coeffs)
    assert repr(a) == repr(oa)
    assert float(a).hex() == float(oa).hex()
    assert a.den > 0 and math.gcd(a.den, *a.num) == 1  # the one canonical form


def outcome(op, *args):
    try:
        return op(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@given(element_coeffs(count=2), st.sampled_from(OPS))
def test_arithmetic_matches_oracle(drawn, op):
    name, (ca, cb) = drawn
    (a, oa), (b, ob) = both(name, ca), both(name, cb)
    same(a, oa)
    got, want = outcome(op, a, b), outcome(op, oa, ob)
    if want is ZeroDivisionError:
        assert got is ZeroDivisionError
    else:
        same(got, want)
    assert (a == b) == (oa == ob)
    assert (a == a + 0) and not (a != a)


@given(element_coeffs(), rationals, st.sampled_from(OPS))
def test_rational_operands_on_either_side_match_oracle(drawn, q, op):
    name, (ca,) = drawn
    a, oa = both(name, ca)
    for scalar in (q, q.numerator):
        for args, oargs in (((a, scalar), (oa, scalar)), ((scalar, a), (scalar, oa))):
            got, want = outcome(op, *args), outcome(op, *oargs)
            if want is ZeroDivisionError:
                assert got is ZeroDivisionError
            else:
                same(got, want)
        assert (a == scalar) == (oa == scalar)


@given(element_coeffs())
def test_inverse_and_negation_match_oracle(drawn):
    name, (ca,) = drawn
    a, oa = both(name, ca)
    same(-a, -oa)
    if any(ca):
        same(a.inverse(), oa.inverse())
        assert a * a.inverse() == 1
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@given(element_coeffs())
def test_rational_elements_hash_like_their_fraction(drawn):
    name, (ca,) = drawn
    field = FIELDS[name][0]
    r = field(ca[0])
    assert r.is_rational() and r.rational_part() == ca[0]
    assert r == ca[0] and hash(r) == hash(ca[0])
    assert len({r, ca[0]}) == 1
    a = field(*ca)
    assert hash(a) == hash(field(*ca))


def test_hash_agrees_with_equality_for_ints():
    assert COS7(3) == 3 and hash(COS7(3)) == hash(3)
    assert len({COS7(3), 3}) == 1
    assert len({SQRT5(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert COS7(0, 1) != 0 and not COS7(0, 1).is_rational()


def test_zero_has_no_inverse():
    for field in (SQRT5, SQRT3, COS7):
        with pytest.raises(ZeroDivisionError):
            field.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            field.one() / field.zero()
        with pytest.raises(ZeroDivisionError):
            1 / field(0, 0)


@pytest.mark.parametrize("op", OPS + [operator.eq])
def test_mixing_fields_is_a_type_error(op):
    with pytest.raises(TypeError):
        op(SQRT5(1, 1), SQRT3(1, 1))
    with pytest.raises(TypeError):
        op(COS7(2), SQRT5(2))


def test_float_of_constants_is_correctly_rounded():
    mp = mpmath.MPContext()
    mp.dps = 40
    want = {"PHI": (1 + mp.sqrt(5)) / 2, "ROOT3": mp.sqrt(3)}
    want.update({f"2cos({k}pi/7)": 2 * mp.cos(k * mp.pi / 7) for k in (1, 2, 3)})
    got = {"PHI": PHI, "ROOT3": ROOT3}
    got.update({f"2cos({k}pi/7)": TWO_COS_PI7[k] for k in (1, 2, 3)})
    for name, value in want.items():
        assert float(got[name]).hex() == float(value).hex(), name
    # the naive sum of c_i alpha^i in floats gave 0.44504186791262845 here
    assert float(TWO_COS_PI7[3]) == 0.4450418679126288


def test_constants():
    assert PHI * PHI == PHI + 1
    assert float(PHI) == (1 + math.sqrt(5)) / 2
    for k, c in TWO_COS_PI7.items():
        assert float(c) == pytest.approx(2 * math.cos(k * math.pi / 7), abs=1e-15)
    assert TWO_COS_PI7[1] * TWO_COS_PI7[2] * TWO_COS_PI7[3] == 1  # 8 cos(pi/7) cos(2pi/7) cos(3pi/7)
    assert repr(COS7(Fraction(-3, 4), 0, 2)) == "-3/4 + 2*a^2" and repr(COS7()) == "0"
