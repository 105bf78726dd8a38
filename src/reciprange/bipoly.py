"""Bivariate polynomials P(zeta, rho) with exchangeable scalar backends.

Coefficients are stored densely: ``coeffs[j]`` is the ascending rho-coefficient
list of the zeta^j term.  All arithmetic is duck-typed so the same code runs on
floats, Fractions, number-field elements and mpmath floats; only the zero test
differs between backends and is supplied by the caller where it matters.
"""

from __future__ import annotations

from dataclasses import dataclass


def rho_trim(c):
    c = list(c)
    while len(c) > 1 and not c[-1]:
        c.pop()
    return c


def rho_add(a, b):
    m = max(len(a), len(b))
    out = []
    for i in range(m):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + y)
    return rho_trim(out)


def rho_neg(a):
    return [-x for x in a]


def rho_sub(a, b):
    return rho_add(a, rho_neg(b))


def rho_mul(a, b):
    out = [0 * (a[0] * b[0])] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return rho_trim(out)


def rho_eval(a, rho):
    acc = 0
    for c in reversed(a):
        acc = acc * rho + c
    return acc


@dataclass
class ZetaPoly:
    """Polynomial in zeta over polynomials in rho."""

    coeffs: list  # coeffs[j]: rho-coefficients (ascending) of zeta^j

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, zeta, rho):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * zeta + rho_eval(c, rho)
        return acc

    def max_abs_coeff(self):
        return max(abs(x) for c in self.coeffs for x in c)

    def __sub__(self, other):
        m = max(len(self.coeffs), len(other.coeffs))
        out = []
        for j in range(m):
            a = self.coeffs[j] if j < len(self.coeffs) else [0]
            b = other.coeffs[j] if j < len(other.coeffs) else [0]
            out.append(rho_sub(a, b))
        return ZetaPoly(out)

    def __mul__(self, other):
        out = [[0] for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = rho_add(out[i + j], rho_mul(a, b))
        return ZetaPoly(out)

    def divmod_monic(self, divisor: "ZetaPoly"):
        """Long division by a divisor whose leading zeta-coefficient is the scalar 1.

        Returns (quotient, remainder); the remainder has zeta-degree below the
        divisor's and exactly encodes the divisibility defect.
        """
        lead = rho_trim(divisor.coeffs[-1])
        if len(lead) != 1 or lead[0] != 1:
            raise ValueError("divisor must be monic in zeta")
        rem = [list(c) for c in self.coeffs]
        dd = divisor.degree
        qlen = len(rem) - dd
        if qlen <= 0:
            return ZetaPoly([[0]]), ZetaPoly([rho_trim(c) for c in rem])
        quot = [[0] for _ in range(qlen)]
        for k in range(qlen - 1, -1, -1):
            quot[k] = rho_trim(list(rem[k + dd]))
            for j in range(dd + 1):
                rem[k + j] = rho_sub(rem[k + j], rho_mul(quot[k], divisor.coeffs[j]))
        return ZetaPoly(quot), ZetaPoly([rho_trim(c) for c in rem[:dd]])


def linear_factor(x_sq, c_sq, one=1.0) -> ZetaPoly:
    """zeta - (X^2 rho + c^2): the factor contributed by an origin-centered ellipse."""
    zero = one * 0
    return ZetaPoly([[c_sq * (-1), x_sq * (-1)], [one, zero]])


def quadratic_factor(sum_sq, diff_sq, c_sq, one=1.0) -> ZetaPoly:
    """zeta^2 - 2 zeta (sum_sq rho + c^2) + (diff_sq rho + c^2)^2: the factor of a
    displaced pair of congruent ellipses, sum_sq = X^2 + p^2, diff_sq = X^2 - p^2."""
    zero = one * 0
    const = [c_sq * c_sq, 2 * c_sq * diff_sq, diff_sq * diff_sq]
    return ZetaPoly([const, [c_sq * -2, sum_sq * -2], [one, zero, zero]])

