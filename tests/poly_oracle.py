"""The n = 2..6 Kippenhahn polynomials written out by hand: an oracle for the recurrence.

With w_j = xi_j + rho the coefficients of P_n(zeta, rho) are signed sums of
products of the w_j over non-adjacent index sets.  ``kippenhahn`` builds P_n
by the determinant recurrence; these forms are kept here so tests can check
it against an independent derivation.
"""

from reciprange.bipoly import ZetaPoly, rho_add, rho_mul, rho_trim


def hand_written_poly(x, one) -> ZetaPoly:
    """P_n for n = len(x) + 1 in 2..6 over any scalar ring containing ``one``."""
    n = len(x) + 1
    zero = one * 0
    if n == 2:
        poly = ZetaPoly([[-x[0], -one], [one]])
    elif n == 3:
        poly = ZetaPoly([[-(x[0] + x[1]), -2 * one], [one]])
    elif n == 4:
        const = rho_mul([x[0], one], [x[2], one])
        poly = ZetaPoly([const, [-(x[0] + x[1] + x[2]), -3 * one], [one]])
    elif n == 5:
        const = rho_add(
            rho_add(rho_mul([x[0], one], [x[2], one]), rho_mul([x[0], one], [x[3], one])),
            rho_mul([x[1], one], [x[3], one]),
        )
        poly = ZetaPoly([const, [-(x[0] + x[1] + x[2] + x[3]), -4 * one], [one]])
    elif n == 6:
        e2 = x[0] * x[2] + x[0] * x[3] + x[0] * x[4] + x[1] * x[3] + x[1] * x[4] + x[2] * x[4]
        q1 = 3 * (x[0] + x[4]) + 2 * (x[1] + x[2] + x[3])
        const = rho_mul(rho_mul([x[0], one], [x[2], one]), [x[4], one])
        poly = ZetaPoly(
            [
                [-c for c in const],
                [e2, q1 * one, 6 * one],
                [-(x[0] + x[1] + x[2] + x[3] + x[4]), -5 * one, zero],
                [one],
            ]
        )
    else:
        raise ValueError(f"hand-written forms cover n in 2..6, got {n}")
    poly.coeffs = [rho_trim(c) for c in poly.coeffs]
    return poly
