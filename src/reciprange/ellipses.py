"""Elliptical decomposition of the curve for n = 4, 5, 6.

Criteria on the xi-parameters decide when the boundary generating curve is a
union of ellipses (all origin-centered, or one central plus a displaced pair).
Each criterion family is stated once: its match, the snapped xi, the factors
of P_n it implies and the ellipses it reports; one division loop in
``classify`` confirms every positive verdict before it is reported.  A
brute-force decomposition search over candidate foci (from the exact
spectrum) and minor half-axes (from Im A) serves as an independent oracle for
the criteria; it divides many draws at once with its own stacked synthetic
division, not with the ``ZetaPoly`` division above.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import concentric6
from .bipoly import ZetaPoly, linear_factor, quadratic_factor
from .errors import InvalidInputError, UnsupportedDimensionError
from .kippenhahn import build_poly_from_scalars, closed_form_poly
from .matrices import as_xi, check_xi_bound, exact_spectrum, imag_part_spectrum
from .numberfield import PHI, ROOT3, TWO_COS_PI7

ALL_CONCENTRIC = "ALL_CONCENTRIC"
DISPLACED_PAIR = "DISPLACED_PAIR"
MIXED_NONE = "MIXED_NONE"
DEGENERATE_SPECTRUM = "DEGENERATE_SPECTRUM"

ABS_FLOOR = 1e-12
DEFAULT_TOL = 1e-9

PHI_F = (math.sqrt(5) + 1) / 2
COS_PI7 = math.cos(math.pi / 7)
COS_2PI7 = math.cos(2 * math.pi / 7)
COS_3PI7 = math.cos(3 * math.pi / 7)

#: the six positive solutions (X0, X, p) of the displaced-configuration system
XP_TABLE = {
    "i": (2 * COS_PI7, COS_2PI7 - COS_3PI7, COS_2PI7 + COS_3PI7),
    "ii": (2 * COS_PI7, COS_2PI7 + COS_3PI7, COS_2PI7 - COS_3PI7),
    "iii": (2 * COS_2PI7, COS_PI7 - COS_3PI7, COS_PI7 + COS_3PI7),
    "iv": (2 * COS_2PI7, COS_PI7 + COS_3PI7, COS_PI7 - COS_3PI7),
    "v": (2 * COS_3PI7, COS_PI7 - COS_2PI7, COS_PI7 + COS_2PI7),
    "vi": (2 * COS_3PI7, COS_PI7 + COS_2PI7, COS_PI7 - COS_2PI7),
}


@dataclass(frozen=True)
class EllipseComponent:
    """One elliptical component: real center, half focal distance, minor half-axis."""

    center: float
    half_focal: float
    minor_half_axis: float
    degenerate: bool = False

    @property
    def foci(self):
        return (self.center - self.half_focal, self.center + self.half_focal)

    @property
    def major_half_axis(self):
        return math.sqrt(self.minor_half_axis**2 + self.half_focal**2)

    def to_json_dict(self):
        return {
            "p": self.center,
            "X": self.half_focal,
            "c": self.minor_half_axis,
            "foci": list(self.foci),
            "degenerate": self.degenerate,
        }


def _divide(poly: ZetaPoly, factor: ZetaPoly, scale, tol):
    """The quotient of ``poly`` by the monic ``factor``, or None if the remainder
    is not small: tol == 0 asks for an exactly zero remainder; otherwise its
    largest coefficient must stay within tol * max(1, scale)."""
    q, rem = poly.divmod_monic(factor)
    if tol == 0:
        return None if any(c for cs in rem.coeffs for c in cs) else q
    m = max((abs(float(c)) for cs in rem.coeffs for c in cs), default=0.0)
    return q if m <= tol * max(1.0, float(scale)) else None


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    xi: tuple
    verdict: str
    criterion: str | None = None
    k: object = None  # branch index (concentric families) or the de-family ratio
    table_row: str | None = None
    ellipses: tuple = field(default_factory=tuple)
    origin_component: bool = False
    mode: str = "float"
    #: the criterion-exact parameters the confirming division ran on (None for
    #: negative verdicts); equals xi up to the match tolerance
    snapped_xi: tuple | None = None

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "criterion": self.criterion,
            "k": self.k,
            "table_row": self.table_row,
            "ellipses": [e.to_json_dict() for e in self.ellipses],
            "origin_component": self.origin_component,
        }


@dataclass(frozen=True)
class _Backend:
    """One classify mode's scalar ring, chosen here alone: ``convert`` lifts into it
    (float, Fraction with ``numberfield`` constants, or a private 50-digit mpmath
    context) and ``phi``, ``sqrt3`` and ``cosp`` are its constants.
    ``eq``/``is_zero`` match criteria to ``tol`` relative to a scale (never
    below ``floor``), or exactly when ``exact``; ``tol`` is also the confirming
    divisions' remainder threshold, 0 (an exactly zero remainder) in exact mode.
    """

    exact: bool
    floor: float
    convert: object
    phi: object
    sqrt3: object
    cosp: tuple  # cos(j pi/7) for j = 1, 2, 3
    tol: float = 0

    def eq(self, a, b, scale=1.0):
        if self.exact:
            return a == b
        return abs(a - b) <= max(self.floor, self.tol * max(scale, abs(a), abs(b)))

    def is_zero(self, a, scale=1.0):
        return self.eq(a, 0, scale)


@functools.cache
def _mode_backend(mode):
    """The backend of one mode at tol = 0; ``_backend`` sets the caller's tol."""
    if mode == "float":
        return _Backend(False, ABS_FLOOR, float, PHI_F, math.sqrt(3), (COS_PI7, COS_2PI7, COS_3PI7))
    if mode == "exact":
        return _Backend(True, 0, Fraction, PHI, ROOT3, tuple(TWO_COS_PI7[j] / 2 for j in (1, 2, 3)))
    # extended: 50-digit arithmetic in a private context, so the caller's
    # mpmath.mp precision neither leaks in nor is changed; the tolerance stays
    # the caller's, so double-rounded inputs still verify at 1e-9
    import mpmath

    mp = mpmath.MPContext()
    mp.dps = 50
    cosp = tuple(mp.cos(j * mp.pi / 7) for j in (1, 2, 3))
    return _Backend(False, 0, mp.mpf, (mp.sqrt(5) + 1) / 2, mp.sqrt(3), cosp)


def _backend(mode, tol):
    if mode not in ("float", "exact", "extended"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    be = _mode_backend(mode)
    return be if be.exact else replace(be, tol=tol)


class _Candidate(NamedTuple):
    """A criterion family's match: the report ``classify`` makes once P_n of
    ``snapped`` divides through ``factors`` in turn."""

    verdict: str
    criterion: str
    k: object
    table_row: str | None
    snapped: list  # the criterion-exact xi
    factors: tuple  # monic divisors of P_n in division order
    ellipses: tuple
    scale: object = None  # remainder threshold reference; None: P_n's largest coefficient


def classify(xi, mode="float", tol=DEFAULT_TOL):
    """Classify the curve of a reciprocal matrix with n in {4, 5, 6}.

    Verdicts: ALL_CONCENTRIC, DISPLACED_PAIR, MIXED_NONE (not a pure union of
    ellipses), DEGENERATE_SPECTRUM (all xi vanish; the curve is the spectrum).
    Each criterion family matches xi and names the factors of P_n it implies;
    the first match whose divisions all succeed at the same tolerance
    (exactly, in exact mode) is reported.  The tolerant modes divide P_n of
    the criterion-exact (snapped) values, so the remainder measures only
    roundoff, not the match distance; exact matching already required
    equality, so there P_n of xi itself keeps the arithmetic in Q.  Float
    mode refuses xi above MAX_XI, where the products in P_n overflow.
    """
    check_tolerance(tol)
    xi = as_xi(xi)
    n = xi.n
    if n not in (4, 5, 6):
        raise UnsupportedDimensionError(f"classification covers n in 4..6, got {n}")
    be = _backend(mode, tol)
    if mode == "float":
        check_xi_bound(xi, "float classify takes; --mode exact or extended takes any")
    x = [be.convert(v) for v in xi]
    scale = max([1.0] + [abs(float(v)) for v in x])

    def report(**kw):
        return ClassificationReport(n=n, xi=tuple(float(v) for v in xi), mode=mode,
                                    origin_component=n % 2 == 1, **kw)

    if all(be.is_zero(v, scale) for v in x):
        return report(verdict=DEGENERATE_SPECTRUM)
    for cand in _FAMILIES[n](x, be, scale):
        q = build_poly_from_scalars(list(x if be.exact else cand.snapped), be.convert(1))
        thr = q.max_abs_coeff() if cand.scale is None else cand.scale
        for factor in cand.factors:
            q = _divide(q, factor, thr, be.tol)
            if q is None:
                break
        else:
            return report(verdict=cand.verdict, criterion=cand.criterion, k=cand.k,
                          table_row=cand.table_row, ellipses=cand.ellipses,
                          snapped_xi=tuple(float(v) for v in cand.snapped))
    return report(verdict=MIXED_NONE)


def _sqrt_float(v):
    return math.sqrt(max(0.0, float(v)))


def _centered(half_focal, c):
    """An origin-centered component, degenerate (a focal segment) when c <= 1e-9."""
    return EllipseComponent(0.0, half_focal, c, degenerate=c <= 1e-9)


def _branch_k(branches):
    """The k of a two-branch family: the matching branch, or both where they cross."""
    return branches if len(branches) == 2 else branches[0]


def _sub_unit(x, be):
    """max |xi| capped at 1, in the backend's numbers (1 in exact mode).

    A residual of degree d in xi, divided by its (d - 1)th power, measures the
    defect in xi's own units below unit scale, as the oracle does; at scale 1
    and above the division is by 1.
    """
    return be.convert(1) if be.exact else be.convert(min(1.0, max(abs(float(v)) for v in x)))


def _families4(x, be, scale):
    """con4 (branch 1, then 2), then noncon4."""
    phi, one = be.phi, be.convert(1)
    inv_phi = 1 / phi
    branches = [br for br, big, small in ((1, x[0], x[2]), (2, x[2], x[0]))
                if be.eq(x[1], phi * big - inv_phi * small, scale)]
    for br in branches:
        big, small = (x[0], x[2]) if br == 1 else (x[2], x[0])
        factors = (linear_factor(phi * phi, phi * phi * big, one),
                   linear_factor(inv_phi * inv_phi, inv_phi * inv_phi * small, one))
        ells = (_centered(PHI_F, _sqrt_float(big) * float(phi)),
                _centered(1 / PHI_F, _sqrt_float(small) / float(phi)))
        yield _Candidate(ALL_CONCENTRIC, "con4", _branch_k(branches), None,
                         [x[0], phi * big - inv_phi * small, x[2]], factors, ells)
    if be.is_zero(x[1], scale) and be.eq(x[0], x[2], scale) and not be.is_zero(x[0], scale):
        c_sq = (x[0] + x[2]) / 2
        c = _sqrt_float(c_sq)
        ells = (EllipseComponent(0.5, math.sqrt(5) / 2, c), EllipseComponent(-0.5, math.sqrt(5) / 2, c))
        yield _Candidate(DISPLACED_PAIR, "noncon4", None, None, [c_sq, c_sq * 0, c_sq],
                         (quadratic_factor(be.convert(3) / 2, one, c_sq, one),), ells)


def _families5(x, be, scale):
    """con5 (branch 1, then 2), then noncon5."""
    one = be.convert(1)
    hits = (be.eq(x[0], x[3], scale), be.eq(x[0] - x[3], 2 * (x[2] - x[1]), scale))
    branches = [br for br, hit in zip((1, 2), hits) if hit]
    for br in branches:
        if br == 1:
            m = (x[0] + x[3]) / 2
            snapped = [m, x[1], x[2], m]
        else:
            snapped = [x[0], x[1], x[1] + (x[0] - x[3]) / 2, x[3]]
        c_in_sq = (snapped[0] + snapped[3]) / 2
        c_out_sq = snapped[1] + snapped[2] + c_in_sq
        factors = (linear_factor(be.convert(3), c_out_sq, one), linear_factor(one, c_in_sq, one))
        ells = (_centered(math.sqrt(3), _sqrt_float(c_out_sq)), _centered(1.0, _sqrt_float(c_in_sq)))
        yield _Candidate(ALL_CONCENTRIC, "con5", _branch_k(branches), None, snapped, factors, ells)
    s3 = be.sqrt3
    pair_sum = x[1] + x[2]
    if (
        be.is_zero(x[1] * x[2] / _sub_unit(x, be), scale * scale)
        and not be.is_zero(pair_sum, scale)
        and be.eq(x[0], s3 / 2 * pair_sum + x[2], scale)
        and be.eq(x[3], s3 / 2 * pair_sum + x[1], scale)
    ):
        # snap the smaller of xi2, xi3 to zero and rebuild xi1, xi4
        zero2 = abs(float(x[1])) <= abs(float(x[2]))
        xi2 = x[1] * 0 if zero2 else x[1]
        xi3 = x[2] if zero2 else x[2] * 0
        s = xi2 + xi3
        c_sq = (2 + s3) / 2 * s
        c = _sqrt_float(c_sq)
        p = (math.sqrt(3) - 1) / 2
        X = (math.sqrt(3) + 1) / 2
        snapped = [s3 / 2 * s + xi3, xi2, xi3, s3 / 2 * s + xi2]
        yield _Candidate(DISPLACED_PAIR, "noncon5", None, None, snapped,
                         (quadratic_factor(be.convert(2), s3, c_sq, one),),
                         (EllipseComponent(p, X, c), EllipseComponent(-p, X, c)))


def _families6(x, be, scale):
    """3conel, then the first of de1, de2/de3 at 2cos(pi/7), de2/de3 at 2cos(3pi/7) that matches."""
    # three concentric ellipses: match P_6 for the axes
    s, one = [4 * c * c for c in be.cosp], be.convert(1)
    t, residuals = concentric6.candidate_axes(x, s, one)
    u = _sub_unit(x, be)
    # e2 and the weighted pair sum have degree 2 in xi, the product degree 3
    res_ok = all(be.is_zero(r / u ** (d - 1), scale**3 + scale) for r, d in zip(residuals, (2, 2, 3)))
    if res_ok and all(float(v) >= -be.tol * scale for v in t):
        tc = [v if float(v) > 0 else be.convert(0) for v in t]
        # the division remainder re-expresses the matching residuals, amplified
        # by coefficient magnitudes; keep its threshold consistent with res_ok
        yield _Candidate(ALL_CONCENTRIC, "3conel", None, None, x,
                         tuple(linear_factor(sj, tj, one) for sj, tj in zip(s, tc)),
                         tuple(_centered(2 * math.cos((j + 1) * math.pi / 7), _sqrt_float(tj))
                               for j, tj in enumerate(tc)),
                         4 * (scale**3 + scale))

    # displaced families
    two_c2 = 2 * be.cosp[1]
    # de1: xi3 = 0, xi5 = xi1 != 0, xi2 = xi4 = 2 xi1 cos(2pi/7)
    if (
        be.is_zero(x[2], scale)
        and be.eq(x[0], x[4], scale)
        and not be.is_zero(x[0], scale)
        and be.eq(x[1], two_c2 * x[0], scale)
        and be.eq(x[3], two_c2 * x[4], scale)
    ):
        b = (x[0] + x[4]) / 2
        yield _displaced6(be, "de1", None, "vi", [b, two_c2 * b, b * 0, two_c2 * b, b])
        return
    for kv, row in ((2 * be.cosp[0], "ii"), (2 * be.cosp[2], "vi")):
        km1_sq = (kv - 1) * (kv - 1)
        # de2: xi2 = 0, xi3 = xi5 = k xi1, xi4 = (k-1)^2 xi1; de3 is de2 of the reversed xi
        for crit, y in (("de2", x), ("de3", x[::-1])):
            if (
                be.is_zero(y[1], scale)
                and not be.is_zero(y[0], scale)
                and be.eq(y[2], kv * y[0], scale)
                and be.eq(y[4], kv * y[0], scale)
                and be.eq(y[3], km1_sq * y[0], scale)
            ):
                snapped = [y[0], y[0] * 0, kv * y[0], km1_sq * y[0], kv * y[0]]
                yield _displaced6(be, crit, kv, row, snapped if crit == "de2" else snapped[::-1])
                return


def _displaced6(be, crit, kv, row, snapped):
    """The candidate of a matching de family: a central ellipse and the pair of table row ``row``."""
    X0, X, p = XP_TABLE[row]
    # rows (ii)/(vi): X, p = cos(a pi/7) +- cos(b pi/7) with (a,b) below
    a, b = (1, 2) if row == "ii" else (0, 1)
    ca, cb = be.cosp[a], be.cosp[b]
    c0x = be.cosp[0 if row == "ii" else 2]
    if crit == "de1":
        c_sq = (snapped[0] + snapped[1] + snapped[3] + snapped[4]) / 2
        c0_sq = snapped[0] * 0
    else:
        c_sq = snapped[0 if crit == "de2" else 4]
        c0_sq = kv * kv * c_sq
    one = be.convert(1)
    factors = (linear_factor(4 * c0x * c0x, c0_sq, one),
               quadratic_factor(2 * (ca * ca + cb * cb), 4 * ca * cb, c_sq, one))
    c = _sqrt_float(c_sq)
    ells = (_centered(X0, _sqrt_float(c0_sq)), EllipseComponent(p, X, c), EllipseComponent(-p, X, c))
    return _Candidate(DISPLACED_PAIR, crit, None if kv is None else float(kv), row, snapped, factors, ells)


_FAMILIES = {4: _families4, 5: _families5, 6: _families6}


# ---------------------------------------------------------------------------
# brute-force decomposition oracle
# ---------------------------------------------------------------------------

def _minor_axis_candidates(x: np.ndarray, tol) -> np.ndarray:
    """Each draw's candidate squared minor half-axes, NaN-padded to one (B, C) array.

    The nonnegative eigenvalues of Im A (the horizontal-tangent ordinates) are
    the only possible minor half-axes of elliptical components.  Their
    squares and 0 are sorted per draw and near-identical ones merged.  An xi
    entry within tol * max(1, max xi) of 0 moves them by about its square
    root, so a draw with such entries also takes the eigenvalues of Im A with
    those entries set to 0.
    """
    near = (x > 0) & (x <= tol * np.maximum(1.0, np.max(x, axis=1, keepdims=True)))
    spectra = [list(s) for s in imag_part_spectrum(x)]
    snap = np.nonzero(near.any(axis=1))[0]
    for b, spectrum in zip(snap.tolist(), imag_part_spectrum(np.where(near, 0.0, x)[snap])):
        spectra[b] += spectrum.tolist()
    rows = []
    for spectrum in spectra:
        uniq = []
        for v in sorted({0.0} | {float(max(0.0, v)) ** 2 for v in spectrum if v >= -tol}):
            if not uniq or v - uniq[-1] > 1e-12 * max(1.0, v):
                uniq.append(v)
        rows.append(uniq)
    width = max(map(len, rows))
    return np.array([r + [np.nan] * (width - len(r)) for r in rows])


def _coeff_rows(polys) -> np.ndarray:
    """The zeta-rho coefficients of each ZetaPoly as one float row, zero-padded alike."""
    depth = max(len(p.coeffs) for p in polys)
    width = max(len(c) for p in polys for c in p.coeffs)
    out = np.zeros((len(polys), depth, width))
    for i, p in enumerate(polys):
        for j, c in enumerate(p.coeffs):
            out[i, j, : len(c)] = [float(v) for v in c]
    return out.reshape(len(polys), -1)


#: level, relative to P_n's largest coefficient, below which the divisibility
#: defect counts as rounding; the float foci leave about 1e-15 there, so this
#: is a wide margin, not the rounding level itself
DEFECT_NOISE = 1e-11


def _sampson_distance(xi, factors, xi_tol) -> float:
    """First-order xi-distance from P_n to a product of factors with free c^2.

    ``factors`` holds (build, c_sq) pairs, build(c_sq) giving the ZetaPoly
    factor; the foci stay fixed and each c^2 may move.  With r the
    coefficients of P_n(xi) - prod(factors), this is the Sampson distance
    |r| / ||dr/dxi|| with the c^2 directions projected out: the least-norm
    delta with r + (dr/dxi) delta + (dr/dc^2) gamma = 0 in the least-squares
    sense.  Along directions so weakly reachable that the rounding of r alone
    could move delta by xi_tol / 10, and for the part of r no first-order move
    reaches (singular points of the variety, such as the crossing of the two
    con4 branches), r counts by the plain ratio |r| / ||dr/dxi||, a lower
    bound.  A tridiagonal determinant uses each off-diagonal pair at most
    once, so P_n is affine in each xi_j, and every factor is at most quadratic
    in its c^2: the differences below are exact derivatives up to rounding.
    """
    x = [float(v) for v in as_xi(xi)]
    P = closed_form_poly(x)
    built = [build(c) for build, c in factors]
    d_xi = [closed_form_poly(x[:j] + [x[j] + 1.0] + x[j + 1 :]) - P for j in range(len(x))]
    d_c = [functools.reduce(ZetaPoly.__mul__, built[:i] + [build(c + 1) - build(c - 1)] + built[i + 1 :])
           for i, (build, c) in enumerate(factors)]
    rows = _coeff_rows([P - functools.reduce(ZetaPoly.__mul__, built)] + d_xi + d_c)
    r, jx, jc = rows[0], rows[1 : 1 + len(x)].T, rows[1 + len(x) :].T / 2

    def off_c(v):  # the part of v that no change of the c^2 can produce
        return v - jc @ np.linalg.lstsq(jc, v, rcond=None)[0]

    a, b, jnorm = off_c(jx), -off_c(r), np.linalg.norm(jx, 2)
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    noise = DEFECT_NOISE * float(P.max_abs_coeff())
    keep = (sv > 1e-9 * jnorm) & (sv * xi_tol >= 10 * noise)
    delta = vt[keep].T @ (u[:, keep].T @ b / sv[keep])
    return float(np.linalg.norm(delta) + np.linalg.norm(b - a @ delta) / jnorm)


def _divide_monic(P, low):
    """Quotients and remainders of stacked divisions by monic divisors in zeta.

    ``P`` (..., D, W) holds the dividends' rho-coefficient rows, ``low``
    (..., d, W_d) each divisor's rows below its leading 1; the leading axes
    broadcast.  The float operations are ``ZetaPoly.divmod_monic``'s, in its
    order: a quotient row times a divisor row accumulates its rho-products
    over the quotient index in ascending order, as ``rho_mul`` does, and is
    then subtracted.  So every remainder equals divmod_monic's up to the signs
    of zeros.  P_n and its factors are homogeneous in zeta and rho, so the
    products vanish past width W and are dropped there.
    """
    d, wd = low.shape[-2:]
    depth, w = P.shape[-2:]
    lead = np.broadcast_shapes(P.shape[:-2], low.shape[:-2])
    rem = np.array(np.broadcast_to(P, lead + (depth, w)))
    quot = np.empty(lead + (depth - d, w))
    prod = np.empty(lead + (w + wd - 1,))
    for k in range(depth - d - 1, -1, -1):
        quot[..., k, :] = q = rem[..., k + d, :]
        for j in range(d):
            prod[...] = 0.0
            for i in range(w):
                prod[..., i : i + wd] += q[..., i, None] * low[..., j, :]
            rem[..., k + j, :] -= prod[..., :w]
    return quot, rem[..., :d, :]


@dataclass(frozen=True)
class _Level:
    """One division step of the search: ``factor(*focus, c^2)`` for every focus
    parameter tuple in ``foci`` and every minor-axis candidate c^2, run focus by
    focus."""

    factor: object  # linear_factor or quadratic_factor
    foci: tuple

    def low_rows(self, c2):
        """(S, K, d, W_d): the divisor rows below the leading 1 of every candidate,
        in search order, for each row of the (S, C) candidate array ``c2``."""
        shape = (len(c2), len(self.foci), c2.shape[1])
        params = [np.array(v)[:, None] for v in zip(*self.foci)]
        rows = self.factor(*params, c2[:, None, :]).coeffs[:-1]
        low = np.zeros(shape + (len(rows), max(map(len, rows))))
        for j, row in enumerate(rows):
            for m, v in enumerate(row):
                low[..., j, m] = v
        return low.reshape(shape[0], shape[1] * shape[2], *low.shape[3:])

    def candidate(self, k, c2):
        """The (build, c^2) factor of candidate ``k`` for one draw's candidates ``c2``."""
        f, c = divmod(k, len(c2))
        return functools.partial(self.factor, *self.foci[f]), float(c2[c])


def _chain_search(P, thr, c2, levels, accept):
    """The draws whose P_n divides through ``levels`` into factors ``accept`` takes.

    A depth-first search run level by level: each level divides every
    surviving quotient by all of its candidates at once and keeps those whose
    remainder stays within the draw's threshold ``thr``.  The chains that
    survive every level go to ``accept(draw, factors)`` in depth-first order,
    and a draw stops at its first success.
    """
    draws, quot, chains = np.arange(len(P)), P, [()] * len(P)
    for level in levels:
        q, r = _divide_monic(quot[:, None], level.low_rows(c2[draws]))
        s, k = np.nonzero(np.max(np.abs(r), axis=(-2, -1)) <= thr[draws, None])
        draws, quot = draws[s], q[s, k]
        chains = [chains[i] + ((level, kk),) for i, kk in zip(s.tolist(), k.tolist())]
    found = set()
    for b, chain in zip(draws.tolist(), chains):
        if b not in found and accept(b, [level.candidate(k, c2[b]) for level, k in chain]):
            found.add(b)
    return found


def check_tolerance(tol):
    """Reject a tolerance that is NaN, infinite or negative; 0 asks for exact matches."""
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidInputError(f"tolerance must be finite and nonnegative, got {tol}")


def brute_force_batch(xis, tol=DEFAULT_TOL):
    """Search full elliptical decompositions of P_n by divisibility alone, for draws of one n.

    Candidate foci come from the exact spectrum, candidate minor half-axes from
    the eigenvalues of Im A.  A candidate is accepted when every division
    leaves a remainder within tol times the largest coefficient of P_n and its
    Sampson distance is within tol * max(1, max |xi|).  The divisions of all
    draws and candidates run as stacked synthetic divisions over numpy arrays,
    independent of the ``ZetaPoly`` division that ``classify`` confirms with.
    Returns one set per draw of the decomposition types found: "concentric"
    (all factors origin-centered) and/or "displaced".
    """
    check_tolerance(tol)
    xis = [as_xi(xi) for xi in xis]
    if not xis:
        return []
    n = xis[0].n
    if n not in (4, 5, 6):
        raise UnsupportedDimensionError(f"oracle covers n in 4..6, got {n}")
    if any(xi.n != n for xi in xis):
        raise InvalidInputError(f"one batch takes draws of one n, got {sorted({xi.n for xi in xis})}")
    P = _coeff_rows([closed_form_poly(xi) for xi in xis]).reshape(len(xis), n // 2 + 1, -1)
    thr = tol * np.maximum(1.0, np.max(np.abs(P), axis=(1, 2)))
    x = np.array([xi.xi for xi in xis])
    c2 = _minor_axis_candidates(x, tol)
    xi_tol = (tol * np.maximum(1.0, np.max(x, axis=1))).tolist()

    def accept(b, factors):
        return _sampson_distance(xis[b], factors, xi_tol[b]) <= xi_tol[b]

    pos = [v for v in exact_spectrum(n) if v > 1e-15]
    concentric = [_Level(linear_factor, ((v * v,),)) for v in pos]
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
    # one displaced pair, then origin-centered factors at any foci
    displaced = [_Level(quadratic_factor, tuple((X * X + p * p, X * X - p * p) for p, X in sorted(pairs)))]
    displaced += [_Level(linear_factor, tuple((v * v,) for v in pos))] * (n // 2 - 2)

    found = [set() for _ in xis]
    for kind, levels in (("concentric", concentric), ("displaced", displaced)):
        for b in _chain_search(P, thr, c2, levels, accept):
            found[b].add(kind)
    return found


def brute_force_decompositions(xi, tol=DEFAULT_TOL):
    """``brute_force_batch`` for one xi: the set of decomposition types found."""
    return brute_force_batch([xi], tol)[0]


def verdict_matches_oracle(rep: ClassificationReport, found: set) -> bool:
    if rep.verdict == ALL_CONCENTRIC:
        return "concentric" in found
    if rep.verdict == DISPLACED_PAIR:
        return "displaced" in found
    if rep.verdict == DEGENERATE_SPECTRUM:
        return "concentric" in found  # all factors degenerate to foci
    return not found
