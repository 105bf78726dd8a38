"""Exact arithmetic in small real algebraic number fields.

An element of Q(alpha) is stored as integer numerators of 1, alpha, alpha^2, ...
over one positive common denominator, divided by their gcd so that every
element has exactly one form.  Products are reduced modulo the monic integer
minimal polynomial of alpha, which keeps the numerators integral, and
``float()`` rounds once, from an integer bracket of alpha.  Three fields
cover every irrational constant appearing in the ellipse criteria:

* ``SQRT5``  -- Q(sqrt 5), home of the golden ratio,
* ``SQRT3``  -- Q(sqrt 3),
* ``COS7``   -- Q(2 cos(2 pi/7)), the real cubic subfield of the 7th
  cyclotomic field; it contains every 2 cos(k pi/7).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import index


def _det(m):
    """Determinant of a small square matrix by cofactor expansion along its first row."""
    if not m:
        return 1
    return sum((-1) ** j * c * _det([r[:j] + r[j + 1:] for r in m[1:]]) for j, c in enumerate(m[0]) if c)


class NumberField:
    """Q(alpha) with alpha a root of the given monic integer polynomial.

    ``minpoly`` lists the non-leading coefficients ascending; the leading
    coefficient 1 is implicit, so Q(sqrt5) is ``NumberField([-5, 0], sqrt(5))``.
    """

    def __init__(self, minpoly, root_value, name="alpha"):
        self.minpoly = tuple(index(c) for c in minpoly)
        self.degree = len(self.minpoly)
        self.root_value = float(root_value)
        self.name = name

    def __call__(self, *coeffs):
        """sum_i coeffs[i] alpha^i for rational coeffs (anything ``Fraction`` takes); missing ones are 0."""
        coeffs = coeffs[: self.degree]
        if all(type(c) is int for c in coeffs):
            return FieldElement(self, coeffs + (0,) * (self.degree - len(coeffs)), 1)
        q = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in q))
        return self._element([c.numerator * (den // c.denominator) for c in q], den)

    def zero(self):
        return self()

    def one(self):
        return self(1)

    def gen(self):
        return self(0, 1)

    @functools.cache
    def _root_powers(self, bits):
        """Integers P[i] = a^i and E[i] = (|a| + 1)^i - |a|^i >= |alpha^i 2**(bits i) - a^i|
        for a = floor(alpha 2**bits), bisected from root_value -+ 2**-30, which must isolate alpha."""
        d = self.degree

        def up(k):  # the sign of 2**(bits d) f(k / 2**bits)
            return k**d + sum(m * k**j << bits * (d - j) for j, m in enumerate(self.minpoly)) > 0

        lo, hi = (math.floor(Fraction(self.root_value + e) * 2**bits) for e in (-2**-30, 2**-30))
        sign = up(hi)
        if up(lo) == sign:
            raise ValueError(f"root_value {self.root_value} does not isolate a root of {self.name}")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if up(mid) == sign else (mid, hi)
        return tuple(lo**i for i in range(d)), tuple((abs(lo) + 1) ** i - abs(lo) ** i for i in range(d))

    def _reduce(self, raw):
        """The ``degree`` coefficients of integer ``raw`` (a list, consumed) modulo the minimal polynomial."""
        d = self.degree
        for i in range(len(raw) - 1, d - 1, -1):
            c = raw[i]
            if c:
                # alpha^degree = -sum_j minpoly[j] alpha^j
                for j, m in enumerate(self.minpoly):
                    raw[i - d + j] -= c * m
        return raw[:d] + [0] * (d - len(raw))

    def _element(self, raw, den):
        """The element (sum_i raw[i] alpha^i) / den for integers raw and den != 0, in canonical form."""
        num = self._reduce(raw)
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [c // g for c in num]
            den //= g
        return FieldElement(self, tuple(num), den)


class FieldElement:
    """(num[0] + num[1] alpha + ...) / den with integer num, den > 0 and gcd(den, *num) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self):
        """The rational coefficients of 1, alpha, alpha^2, ... as a tuple of Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise TypeError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        num = [a * o.den + b * self.den for a, b in zip(self.num, o.num)]
        return self.field._element(num, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a rational scalar needs no reduction
            return self.field._element([a * other.numerator for a in self.num], self.den * other.denominator)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        raw = [0] * (2 * self.field.degree - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(o.num):
                    if b:
                        raw[i + j] += a * b
        return self.field._element(raw, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """Inverse by Cramer's rule on the integer matrix of multiplication by the numerator."""
        if not any(self.num):
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        cols = [list(self.num)]  # column j: num * alpha^j
        for _ in range(f.degree - 1):
            cols.append(f._reduce([0] + cols[-1]))
        rows = list(zip(*cols))
        # rows @ y = e_0 gives y = (C_00, ..., C_0k, ...) / det, C_0k the cofactors along row 0
        cof = [(-1) ** k * _det([r[:k] + r[k + 1:] for r in rows[1:]]) for k in range(f.degree)]
        det = sum(a * c for a, c in zip(rows[0], cof))
        if not det:
            raise ZeroDivisionError("non-invertible element")
        return f._element([self.den * c for c in cof], det)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a rational element equals its Fraction (or int), so it hashes like one
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((id(self.field), self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def rational_part(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __float__(self):
        """Correctly rounded: alpha bracketed to ``bits`` binary places brackets the value
        (exactly if rational), and ``bits`` doubles until both ends round alike."""
        num, den = self.num, self.den
        bits = 64
        while True:
            v = e = 0  # the value and its error bound, times den 2**(bits (degree - 1))
            for c, p, q in zip(num, *self.field._root_powers(bits)):
                v = (v << bits) + c * p
                e = (e << bits) + abs(c) * q
            scale = den << bits * (len(num) - 1)
            if (v - e) / scale == (v + e) / scale:
                return (v - e) / scale
            bits *= 2

    def __abs__(self):
        return abs(float(self))

    def __repr__(self):
        terms = [f"{c}*{self.field.name}^{i}" if i else f"{c}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


# x^2 - 5 and x^2 - 3
SQRT5 = NumberField([-5, 0], math.sqrt(5), name="sqrt5")
SQRT3 = NumberField([-3, 0], math.sqrt(3), name="sqrt3")
# alpha = 2 cos(2 pi/7), root of x^3 + x^2 - 2x - 1
COS7 = NumberField([-1, -2, 1], 2 * math.cos(2 * math.pi / 7), name="a")

#: golden ratio (1 + sqrt5)/2
PHI = SQRT5(Fraction(1, 2), Fraction(1, 2))
ROOT3 = SQRT3(0, 1)

_A = COS7.gen()
#: 2 cos(k pi/7) expressed inside Q(2 cos(2 pi/7)), keys k = 1..3
TWO_COS_PI7 = {
    1: _A * _A + _A - 1,
    2: _A,
    3: 2 - _A * _A,
}
