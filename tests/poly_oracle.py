"""Polynomial oracles: hand-written P_n and the per-candidate decomposition search.

With w_j = xi_j + rho the coefficients of P_n(zeta, rho) are signed sums of
products of the w_j over non-adjacent index sets.  ``kippenhahn`` builds P_n
by the determinant recurrence; these forms are kept here so tests can check
it against an independent derivation.

``divides_linear`` and ``divides_quadratic`` divide P_n by the factor of one
ellipse or of one displaced pair through ``ZetaPoly.divmod_monic``, with
their own remainder threshold.  ``oracle_brute_force`` searches elliptical
decompositions of one xi with them, one candidate division at a time;
``ellipses.brute_force_batch`` stacks every draw's divisions into one
synthetic division, and tests check that it decides the same.

``block_split_tangent_ordinates`` finds the horizontal multiple tangents from
the spectrum of Im A alone, an oracle for the closed-form criteria of
``kippenhahn.detect_multiple_tangents``.
"""

import functools
import math

import numpy as np

from reciprange.bipoly import ZetaPoly, linear_factor, quadratic_factor, rho_add, rho_mul, rho_trim
from reciprange.ellipses import _sampson_distance
from reciprange.errors import UnsupportedDimensionError
from reciprange.kippenhahn import closed_form_poly
from reciprange.matrices import as_xi, exact_spectrum, imag_part_spectrum


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


def _divides(P: ZetaPoly, factor: ZetaPoly, tol, scale):
    """The quotient of P by the monic factor, or None unless the remainder's
    largest coefficient is within tol * max(1, scale), scale defaulting to
    the largest coefficient of P; tol = 0 asks for an exactly zero remainder."""
    q, rem = P.divmod_monic(factor)
    coeffs = [c for cs in rem.coeffs for c in cs]
    if tol == 0:
        return None if any(coeffs) else q
    scale = P.max_abs_coeff() if scale is None else scale
    return q if max((abs(float(c)) for c in coeffs), default=0.0) <= tol * max(1.0, float(scale)) else None


def divides_linear(P: ZetaPoly, x_sq, c_sq, tol=1e-9, scale=None):
    """Divide by zeta - (X^2 rho + c^2), the factor of an origin-centered
    ellipse, in P's own ring; quotient on success, None otherwise."""
    return _divides(P, linear_factor(x_sq, c_sq, one=P.coeffs[-1][0]), tol, scale)


def divides_quadratic(P: ZetaPoly, p, x_half, c):
    """Divide by the displaced-pair quadratic of the congruent ellipses centered
    at +-p with half focal distance X and minor half-axis c, in the (p, X, c)
    terms of the paper; quotient on success, None otherwise."""
    factor = quadratic_factor(x_half * x_half + p * p, x_half * x_half - p * p, c * c, one=P.coeffs[-1][0])
    return _divides(P, factor, 1e-9, None)


def minor_axis_candidates(xi, tol=1e-9):
    """Nonnegative squared eigenvalues of Im A (the horizontal-tangent ordinates).

    These are the only possible squared minor half-axes of elliptical
    components.  Computed from the symmetric tridiagonal with off-diagonals
    sqrt(xi_j), which is well conditioned even at repeated eigenvalues.  An
    xi entry within tol * max(1, max xi) of 0 moves the eigenvalues by about
    its square root, so the spectrum with such entries set to 0 joins in.
    """
    xi = list(as_xi(xi))
    near = [0 < v <= tol * max([1.0] + xi) for v in xi]
    spectrum = list(imag_part_spectrum(xi))
    if any(near):
        spectrum += list(imag_part_spectrum([0.0 if z else v for v, z in zip(xi, near)]))
    out = {0.0}
    for v in spectrum:
        if v >= -tol:
            out.add(float(max(0.0, v)) ** 2)
    # dedupe near-identical candidates
    uniq = []
    for v in sorted(out):
        if not uniq or v - uniq[-1] > 1e-12 * max(1.0, v):
            uniq.append(v)
    return uniq


def oracle_brute_force(xi, tol=1e-9):
    """Search full elliptical decompositions of P_n by divisibility alone.

    Candidate foci come from the exact spectrum, candidate minor half-axes from
    the eigenvalues of Im A.  A candidate is accepted when every division
    leaves a remainder within tol times the largest coefficient of P_n and its
    Sampson distance is within tol * max(1, max |xi|).  Returns a set of
    decomposition types found: "concentric" (all factors origin-centered)
    and/or "displaced".
    """
    xi = as_xi(xi)
    n = xi.n
    if n not in (4, 5, 6):
        raise UnsupportedDimensionError(f"oracle covers n in 4..6, got {n}")
    P = closed_form_poly(xi)
    pos = sorted((v for v in exact_spectrum(n) if v > 1e-15), reverse=True)
    c2_cands = minor_axis_candidates(xi, tol)
    found = set()

    pnorm = float(P.max_abs_coeff())
    xi_tol = tol * max([1.0] + [abs(float(v)) for v in xi])

    def accept(factors):
        return _sampson_distance(xi, factors, xi_tol) <= xi_tol

    def linear_chain(poly, xs, factors):
        if not xs:
            return poly.degree == 0 and accept(factors)
        head, rest = xs[0], xs[1:]
        for c2 in c2_cands:
            q = divides_linear(poly, head * head, c2, tol=tol, scale=pnorm)
            factor = (functools.partial(linear_factor, head * head), c2)
            if q is not None and linear_chain(q, rest, factors + [factor]):
                return True
        return False

    if linear_chain(P, pos, []):
        found.add("concentric")

    pairs = set()
    # the spectrum 2cos(j pi/(n+1)) is symmetric about 0: mirroring the positive
    # half makes mirrored pairs give the same (|p|, X) exactly
    vals = pos + [0.0] * (n % 2) + [-v for v in reversed(pos)]
    for i, zi in enumerate(vals):
        for zj in vals[i + 1 :]:
            p = (zi + zj) / 2
            X = (zi - zj) / 2
            if abs(p) > 1e-12 and X > 1e-12:
                pairs.add((abs(p), X))
    for p, X in sorted(pairs):
        for c2 in c2_cands:
            q = _divides(P, quadratic_factor(X * X + p * p, X * X - p * p, c2), tol, pnorm)
            if q is None:
                continue
            pair = (functools.partial(quadratic_factor, X * X + p * p, X * X - p * p), c2)
            if q.degree == 0:
                if accept([pair]):
                    found.add("displaced")
            else:
                rest = [v for v in pos]  # remaining foci for the central factors
                for c02 in c2_cands:
                    for x0 in rest:
                        q2 = divides_linear(q, x0 * x0, c02, tol=tol, scale=pnorm)
                        central = (functools.partial(linear_factor, x0 * x0), c02)
                        if q2 is not None and q2.degree == 0 and accept([pair, central]):
                            found.add("displaced")
    return found


def block_split_tangent_ordinates(xi, tol=1e-9):
    """Ordinates of the horizontal multiple tangent lines, numerically, for any n.

    Where an xi entry vanishes, Im A splits into two diagonal blocks, and an
    eigenvalue the blocks share is the ordinate of a horizontal line tangent to
    the curve at two points.  Each nonzero ordinate comes with its negative, as
    ``detect_multiple_tangents`` reports them; for odd n the ordinate 0 reflects
    the origin component and is left out.
    """
    x = list(as_xi(xi))
    n = len(x) + 1
    atol = max(1e-12, tol * max([1.0] + x))
    zthr = max(1e-10, math.sqrt(atol))
    found = {}
    for split in range(1, n):  # boundary splits only ever share the eigenvalue 0
        if abs(x[split - 1]) > atol:
            continue
        left, right = imag_part_spectrum(x[: split - 1]), imag_part_spectrum(x[split:])
        for ev in left:
            if np.any(np.abs(right - ev) <= zthr):
                ev = 0.0 if abs(ev) <= zthr else float(ev)
                if ev >= 0 and not (n % 2 == 1 and ev == 0.0):
                    found[round(ev, 9)] = ev
    return sorted({o for ev in found.values() for o in (ev, -ev)})
