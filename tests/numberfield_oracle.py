"""Fraction-based number-field arithmetic, kept as an oracle for ``reciprange.numberfield``.

``OracleField`` and ``OracleElement`` store an element of Q(alpha) as a tuple
of Fractions and reduce products modulo the minimal polynomial; inverses come
from the extended Euclidean algorithm, and ``float`` rounds a 40-digit mpmath
evaluation once.  The package stores integer numerators over one common
denominator, inverts by Cramer's rule and rounds from an integer bracket of
alpha, so the tests ask for exactly equal results from the two.

``oracle_derive_rational_criterion`` eliminates t from the n = 6 matching
equations with dict polynomials over ``ORACLE_COS7``.  Its six coefficient
equations (sum, weighted sum and odd sum of xi against t; e2, weighted pair
sum and odd product against the residuals) are derived by hand from the
expansion of P_6.  ``concentric6.candidate_axes`` reads the same coefficients
off P_6 as the determinant recurrence builds it, so this hand derivation is
the independent side: the audit's derived system must equal it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

_MP = mpmath.MPContext()  # private, so the caller's mpmath.mp precision is left alone
_MP.dps = 40


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b):
    m = max(len(a), len(b))
    out = [Fraction(0)] * m
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _trim(out)


def _poly_divmod(a, b):
    """Quotient and remainder of Fraction polynomials (ascending coefficients)."""
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and _trim(a):
        k = len(a) - len(b)
        c = a[-1] / b[-1]
        q[k] = c
        for j, bc in enumerate(b):
            a[j + k] -= c * bc
        a.pop()
        _trim(a)
    return _trim(q), _trim(a)


class OracleField:
    """Q(alpha) with alpha a root of a monic polynomial; non-leading coefficients ascending."""

    def __init__(self, minpoly, root_value, name="alpha"):
        self.minpoly = tuple(Fraction(c) for c in minpoly)
        self.degree = len(minpoly)
        self.root_value = float(root_value)
        self.name = name
        # alpha to 40 digits: Newton on the minimal polynomial from the float root
        coeffs = [1] + [int(c) for c in reversed(self.minpoly)]  # descending, as polyval wants
        self.root_mp = _MP.findroot(lambda z: _MP.polyval(coeffs, z), _MP.mpf(root_value))

    def __call__(self, *coeffs):
        c = [Fraction(x) for x in coeffs]
        c += [Fraction(0)] * (self.degree - len(c))
        return OracleElement(self, tuple(c[: self.degree]))

    def gen(self):
        return self(0, 1)

    def _reduce(self, raw):
        raw = list(raw) + [Fraction(0)] * max(0, self.degree - len(raw))
        for i in range(len(raw) - 1, self.degree - 1, -1):
            c = raw[i]
            if c:
                raw[i] = Fraction(0)
                # alpha^degree = -sum_j minpoly[j] alpha^j
                for j, m in enumerate(self.minpoly):
                    raw[i - self.degree + j] -= c * m
        return tuple(raw[: self.degree])


class OracleElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, OracleElement):
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
        return OracleElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return OracleElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.field.degree
        raw = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        raw[i + j] += a * b
        return OracleElement(self.field, self.field._reduce(raw))

    __rmul__ = __mul__

    def inverse(self):
        """Inverse via the extended Euclidean algorithm against the minimal polynomial."""
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero field element")
        m = list(self.field.minpoly) + [Fraction(1)]
        r0, r1 = m, _trim(list(self.coeffs))
        # track s with r = s*self mod minpoly
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem if rem else [Fraction(0)]
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            if not any(r1):
                raise ZeroDivisionError("non-invertible element")
        inv = [c / r1[0] for c in s1]
        return OracleElement(self.field, self.field._reduce(inv))

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
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def rational_part(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __float__(self):
        """Rounded once from a 40-digit evaluation, so correctly rounded unless
        the value cancels to below ~1e-24 of its terms."""
        root = self.field.root_mp
        return float(_MP.fsum(_MP.mpf(c.numerator) / c.denominator * root**i for i, c in enumerate(self.coeffs)))

    def __repr__(self):
        terms = [f"{c}*{self.field.name}^{i}" if i else f"{c}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


ORACLE_SQRT5 = OracleField([-5, 0], math.sqrt(5), name="sqrt5")
ORACLE_SQRT3 = OracleField([-3, 0], math.sqrt(3), name="sqrt3")
ORACLE_COS7 = OracleField([-1, -2, 1], 2 * math.cos(2 * math.pi / 7), name="a")


# ---------------------------------------------------------------------------
# the n = 6 elimination of t with dict polynomials (monomial -> element)
# ---------------------------------------------------------------------------

_C = ORACLE_COS7
_a = _C.gen()
_SX = [c * c for c in (_a * _a + _a - 1, _a, 2 - _a * _a)]  # s_j = (2 cos(j pi/7))^2


def _padd(p, q):
    r = dict(p)
    for m, c in q.items():
        nc = r.get(m, _C(0)) + c
        if nc == _C(0):
            r.pop(m, None)
        else:
            r[m] = nc
    return r


def _pneg(p):
    return {m: -c for m, c in p.items()}


def _pmul(p, q):
    r = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            nc = r.get(m, _C(0)) + c1 * c2
            if nc == _C(0):
                r.pop(m, None)
            else:
                r[m] = nc
    return r


def _pscale(p, c):
    return {m: cc * c for m, cc in p.items() if cc * c != _C(0)}


def _pvar(i):
    m = [0] * 5
    m[i] = 1
    return {tuple(m): _C(1)}


def oracle_derive_rational_criterion():
    """Eliminate t exactly; returns three monomial->Fraction dicts (G2a, G2b, G3)."""
    X = [_pvar(i) for i in range(5)]
    s = _SX
    total = X[0]
    for i in range(1, 5):
        total = _padd(total, X[i])
    q1 = _padd(_pscale(_padd(X[0], X[4]), _C(3)), _pscale(_padd(_padd(X[1], X[2]), X[3]), _C(2)))
    odd = _padd(_padd(X[0], X[2]), X[4])
    b = [total, q1, odd]
    M = [[_C(1), _C(1), _C(1)],
         [_C(5) - s[0], _C(5) - s[1], _C(5) - s[2]],
         [s[0].inverse(), s[1].inverse(), s[2].inverse()]]

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    D = det3(M)
    Dinv = D.inverse()
    T = []
    for k in range(3):
        tk = {}
        for i in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != k]
            minor = M[rows[0]][cols[0]] * M[rows[1]][cols[1]] - M[rows[0]][cols[1]] * M[rows[1]][cols[0]]
            sign = _C(1 if (i + k) % 2 == 0 else -1)
            tk = _padd(tk, _pscale(b[i], minor * sign))
        T.append(_pscale(tk, Dinv))

    e2xi = {}
    for (i, j) in [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]:
        e2xi = _padd(e2xi, _pmul(X[i], X[j]))
    oddpair = _padd(_padd(_pmul(X[0], X[2]), _pmul(X[0], X[4])), _pmul(X[2], X[4]))
    oddprod = _pmul(_pmul(X[0], X[2]), X[4])

    G2a = _padd(_padd(_padd(_pmul(T[0], T[1]), _pmul(T[0], T[2])), _pmul(T[1], T[2])), _pneg(e2xi))
    G2b = _padd(
        _padd(
            _padd(_pscale(_pmul(T[0], T[1]), s[2]), _pscale(_pmul(T[0], T[2]), s[1])),
            _pscale(_pmul(T[1], T[2]), s[0]),
        ),
        _pneg(oddpair),
    )
    G3 = _padd(_pmul(_pmul(T[0], T[1]), T[2]), _pneg(oddprod))

    def rationalize(p, name):
        out = {}
        for m, c in p.items():
            if not c.is_rational():
                raise ArithmeticError(f"{name}: non-rational coefficient {c} at {m}")
            q = c.rational_part()
            if q:
                out[m] = q
        return out

    return rationalize(G2a, "G2a"), rationalize(G2b, "G2b"), rationalize(G3, "G3")
