"""Three concentric ellipses for n = 6: exact criterion, audit, instances.

A 6x6 reciprocal matrix has curve components consisting of three origin-centered
ellipses iff P_6 factors as prod_j (zeta - (s_j rho + t_j)) with
s_j = 4 cos^2(j pi/7).  ``candidate_axes`` builds P_6 with the determinant
recurrence of ``kippenhahn`` in the caller's ring and matches its coefficients
with those of the product: three are linear in the t_j (solved by Lagrange
interpolation at the s_j) and three are polynomial consistency conditions on
xi.  Run on symbolic xi over Q(2 cos(2 pi/7)), the same code eliminates t and
turns those conditions into polynomials in xi alone with rational coefficients;
``audit_concentric_criterion`` compares them with the commonly quoted integer
form of the criterion, whose xi1*xi3*xi5 coefficient (-41) looks suspicious
and is re-derived here from scratch.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

import numpy as np

from .kippenhahn import build_poly_from_scalars
from .matrices import as_xi
from .numberfield import COS7, TWO_COS_PI7

S_FLOAT = tuple(4 * math.cos(j * math.pi / 7) ** 2 for j in (1, 2, 3))


def candidate_axes(x, s, one):
    """Match P_6 of xi ``x`` with prod_j (zeta - s_j rho - t_j); returns (t, residuals).

    ``x``, ``s`` (the s_j = 4 cos^2(j pi/7)) and ``one`` share a ring: floats,
    mpmath numbers, Fractions with s in Q(2cos(2pi/7)), or polynomials in xi.
    The coefficients a = -[zeta^2], b = [zeta rho] and c = -[rho^2] of P_6
    give sum_j t_j (y - s_k)(y - s_l) = a y^2 - b y + c ({j, k, l} = {1, 2, 3}),
    so y = s_j gives each t_j by Lagrange interpolation.  The residuals e2(t),
    sum s_k t_i t_j and e3(t), against zeta, rho and 1, all vanish iff the
    factorization exists.
    """
    if len(x) != 5:
        raise ValueError("candidate_axes needs n = 6")
    P = build_poly_from_scalars(list(x), one).coeffs  # P[i][k]: coefficient of zeta^i rho^k
    a, b, c = -P[2][0], P[1][1], -P[0][2]
    t = [(a * sj * sj - b * sj + c) / ((sj - sk) * (sj - sl))
         for sj, sk, sl in ((s[0], s[1], s[2]), (s[1], s[2], s[0]), (s[2], s[0], s[1]))]
    residuals = (
        t[0] * t[1] + t[0] * t[2] + t[1] * t[2] - P[1][0],
        s[2] * t[0] * t[1] + s[1] * t[0] * t[2] + s[0] * t[1] * t[2] + P[0][1],
        t[0] * t[1] * t[2] + P[0][0],
    )
    return t, residuals


# ---------------------------------------------------------------------------
# exact elimination of t: the criterion as rational polynomials in xi
# ---------------------------------------------------------------------------

class _Poly:
    """Polynomial in xi_1..xi_5 over Q(2cos(2pi/7)): exponent tuple -> nonzero coefficient.

    Enough of a ring (with int and field-element scalars) for ``candidate_axes``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @classmethod
    def var(cls, i):
        return cls({tuple(int(j == i) for j in range(5)): COS7(1)})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            if m in terms:
                c = terms[m] + c
                if not c:
                    del terms[m]
                    continue
            terms[m] = c
        return _Poly(terms)

    def __neg__(self):
        return _Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, _Poly):
            return _Poly({m: p for m, c in self.terms.items() if (p := c * other)})
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                p = c1 * c2
                terms[m] = terms[m] + p if m in terms else p
        return _Poly({m: c for m, c in terms.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * other.inverse()


def derive_rational_criterion():
    """Eliminate t exactly; returns three monomial->Fraction dicts (G2a, G2b, G3).

    Runs ``candidate_axes`` on symbolic xi, so its residuals, read off P_6 as
    the determinant recurrence builds it, are the criterion.  The first two
    are quadratic, the third cubic in xi; each has rational coefficients
    because the construction is stable under permuting the s_j.
    """
    s = [TWO_COS_PI7[j] * TWO_COS_PI7[j] for j in (1, 2, 3)]
    _, residuals = candidate_axes([_Poly.var(i) for i in range(5)], s, _Poly({(0,) * 5: COS7(1)}))
    out = []
    for name, g in zip(("G2a", "G2b", "G3"), residuals):
        for m, c in g.terms.items():
            if not c.is_rational():
                raise ArithmeticError(f"{name}: non-rational coefficient {c} at {m}")
        out.append({m: c.rational_part() for m, c in g.terms.items()})
    return tuple(out)


def _mono(*exps):
    return tuple(exps)


def quoted_criterion(third_eq_coefficient=Fraction(-41)):
    """The commonly quoted integer form of the criterion, as monomial dicts.

    ``third_eq_coefficient`` is the disputed coefficient of xi1*xi3*xi5 in the
    cubic equation.
    """
    f = Fraction
    eq1 = {
        _mono(2, 0, 0, 0, 0): f(2), _mono(1, 1, 0, 0, 0): f(4), _mono(1, 0, 1, 0, 0): f(-2),
        _mono(1, 0, 0, 1, 0): f(-3), _mono(1, 0, 0, 0, 1): f(-3), _mono(0, 2, 0, 0, 0): f(1),
        _mono(0, 0, 0, 2, 0): f(1), _mono(0, 0, 0, 0, 2): f(2), _mono(0, 1, 1, 0, 0): f(2),
        _mono(0, 1, 0, 1, 0): f(-5), _mono(0, 0, 1, 1, 0): f(2), _mono(0, 1, 0, 0, 1): f(-3),
        _mono(0, 0, 1, 0, 1): f(-2), _mono(0, 0, 0, 1, 1): f(4),
    }
    eq2 = {
        _mono(2, 0, 0, 0, 0): f(2), _mono(1, 1, 0, 0, 0): f(1), _mono(1, 0, 1, 0, 0): f(-3),
        _mono(1, 0, 0, 1, 0): f(1), _mono(1, 0, 0, 0, 1): f(-3), _mono(0, 2, 0, 0, 0): f(-1),
        _mono(0, 0, 2, 0, 0): f(1), _mono(0, 0, 0, 2, 0): f(-1), _mono(0, 0, 0, 0, 2): f(2),
        _mono(0, 1, 1, 0, 0): f(2), _mono(0, 1, 0, 1, 0): f(-2), _mono(0, 0, 1, 1, 0): f(2),
        _mono(0, 1, 0, 0, 1): f(1), _mono(0, 0, 1, 0, 1): f(-3), _mono(0, 0, 0, 1, 1): f(1),
    }
    eq3 = {
        _mono(3, 0, 0, 0, 0): f(1), _mono(2, 1, 0, 0, 0): f(2), _mono(2, 0, 1, 0, 0): f(4),
        _mono(2, 0, 0, 1, 0): f(2), _mono(2, 0, 0, 0, 1): f(3), _mono(1, 2, 0, 0, 0): f(-1),
        _mono(1, 0, 2, 0, 0): f(3), _mono(1, 0, 0, 2, 0): f(-1), _mono(1, 0, 0, 0, 2): f(3),
        _mono(1, 1, 1, 0, 0): f(3), _mono(1, 1, 0, 1, 0): f(-2), _mono(1, 0, 1, 1, 0): f(3),
        _mono(1, 1, 0, 0, 1): f(4), _mono(1, 0, 1, 0, 1): Fraction(third_eq_coefficient),
        _mono(1, 0, 0, 1, 1): f(4), _mono(0, 3, 0, 0, 0): f(-1), _mono(0, 0, 3, 0, 0): f(-1),
        _mono(0, 0, 0, 3, 0): f(-1), _mono(0, 0, 0, 0, 3): f(1), _mono(0, 1, 2, 0, 0): f(2),
        _mono(0, 1, 0, 2, 0): f(-3), _mono(0, 0, 1, 2, 0): f(1), _mono(0, 1, 0, 0, 2): f(2),
        _mono(0, 0, 1, 0, 2): f(4), _mono(0, 0, 0, 1, 2): f(2), _mono(0, 2, 1, 0, 0): f(1),
        _mono(0, 2, 0, 1, 0): f(-3), _mono(0, 0, 2, 1, 0): f(2), _mono(0, 1, 1, 1, 0): f(2),
        _mono(0, 2, 0, 0, 1): f(-1), _mono(0, 0, 2, 0, 1): f(3), _mono(0, 0, 0, 2, 1): f(-1),
        _mono(0, 1, 1, 0, 1): f(3), _mono(0, 1, 0, 1, 1): f(-2), _mono(0, 0, 1, 1, 1): f(3),
    }
    return eq1, eq2, eq3


def audit_concentric_criterion():
    """Re-derive the criterion and compare with the quoted integer form.

    Returns a dict with the derived scale factors, the reconstructed
    xi1*xi3*xi5 coefficient of the cubic equation, and whether the quoted
    value -41 is confirmed.
    """
    G2a, G2b, G3 = derive_rational_criterion()
    q1, q2, q3 = quoted_criterion()

    def proportional(quoted, derived):
        """quoted == factor * derived for one rational factor, or None."""
        if set(quoted) != set(derived):
            return None
        items = iter(quoted.items())
        m0, c0 = next(items)
        factor = c0 / derived[m0]
        for m, c in quoted.items():
            if derived[m] * factor != c:
                return None
        return factor

    f1 = proportional(q1, G2a)
    f2 = proportional(q2, G2b)
    # the cubic: compare all monomials except the disputed one, then read it off
    key = _mono(1, 0, 1, 0, 1)
    q3_rest = {m: c for m, c in q3.items() if m != key}
    g3_rest = {m: c for m, c in G3.items() if m != key}
    f3 = proportional(q3_rest, g3_rest)
    reconstructed = None
    if f3 is not None and key in G3:
        reconstructed = G3[key] * f3
    confirmed = reconstructed == Fraction(-41)
    return {
        "quadratic_scale_factors": (f1, f2),
        "cubic_scale_factor": f3,
        "printed_coefficient": -41,
        "reconstructed_coefficient": reconstructed,
        "confirmed": bool(confirmed),
        "derived_system": (G2a, G2b, G3),
    }


def evaluate_criterion(xi, third_eq_coefficient=Fraction(-41)):
    """Evaluate the three quoted criterion polynomials at xi (floats)."""
    x = [float(v) for v in as_xi(xi)]
    return tuple(sum(math.prod((v**e for v, e in zip(x, m)), start=float(c)) for m, c in eq.items())
                 for eq in quoted_criterion(third_eq_coefficient))


# ---------------------------------------------------------------------------
# numeric instances on the criterion variety
# ---------------------------------------------------------------------------

def _from_t(t):
    """(s, t, xi3, u, v) on the variety: u = xi1 + xi5 and v = xi1 xi5, given t."""
    s = np.asarray(S_FLOAT)
    t = np.asarray(t, float)
    xi3 = float(np.sum(t * (s - 1) * (s - 3)))
    u = float(np.sum((3 - s) * t))
    rhs5 = s[2] * t[0] * t[1] + s[1] * t[0] * t[2] + s[0] * t[1] * t[2]
    return s, t, xi3, u, rhs5 - xi3 * u


def _consistency(t1, t2, t3):
    _, t, xi3, _, v = _from_t((t1, t2, t3))
    return v * xi3 - t[0] * t[1] * t[2]


def _xi_candidates_from_t(t):
    s, t, xi3, u, v = _from_t(t)
    w = float(np.sum((s - 2) * t)) - xi3
    if xi3 <= 0 or u < 0 or w < 0:
        return []
    disc = u * u - 4 * v
    if disc < 0:
        return []
    out = []
    for xi1 in ((u + math.sqrt(disc)) / 2, (u - math.sqrt(disc)) / 2):
        xi5 = u - xi1
        if xi1 < -1e-12 or xi5 < -1e-12:
            continue
        e2t = t[0] * t[1] + t[0] * t[2] + t[1] * t[2]
        r3 = e2t - xi3 * u - xi1 * xi5
        # xi2 from xi1*xi4 + xi2*xi5 + xi2*xi4 = r3 with xi4 = w - xi2
        aq, bq, cq = -1.0, (xi5 - xi1 + w), xi1 * w - r3
        d2 = bq * bq - 4 * aq * cq
        if d2 < 0:
            continue
        for xi2 in ((-bq + math.sqrt(d2)) / (2 * aq), (-bq - math.sqrt(d2)) / (2 * aq)):
            xi4 = w - xi2
            if xi2 >= -1e-12 and xi4 >= -1e-12:
                out.append(tuple(max(0.0, z) for z in (xi1, xi2, xi3, xi4, xi5)))
    return out


def find_concentric_instance(seed=0):
    """Find xi > 0 with three concentric elliptical components by root-finding.

    Draws (t1, t2), up to 5000 times, solves the scalar consistency condition
    for t3 by bisection, and reconstructs xi, keeping the first whose every
    xi is at least 1e-3.  Returns (xi, t) with t the squared minor half-axes.
    """
    rng = np.random.default_rng(seed)
    for _ in range(5000):
        t1, t2 = rng.uniform(0.1, 4.0, 2)
        grid = np.linspace(1e-4, 6.0, 200)
        vals = [_consistency(t1, t2, g) for g in grid]
        for i in range(len(grid) - 1):
            if vals[i] * vals[i + 1] > 0:
                continue
            a, b = grid[i], grid[i + 1]
            fa = _consistency(t1, t2, a)
            for _ in range(200):
                m = (a + b) / 2
                fm = _consistency(t1, t2, m)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            t3 = (a + b) / 2
            for xi in _xi_candidates_from_t((t1, t2, t3)):
                if min(xi) < 1e-3:
                    continue
                return xi, tuple(sorted((t1, t2, t3), reverse=True))
    raise RuntimeError("no instance found; widen the search")
