"""Kippenhahn polynomials and curves of reciprocal matrices.

The characteristic polynomial det(Re(e^{i theta} A) - lambda I) of a reciprocal
matrix collapses, after zeta = lambda^2 and rho = cos^2(theta), to a polynomial
P_n(zeta, rho) of zeta-degree floor(n/2) whose coefficients depend only on the
xi-parameters (odd n carries an extra -lambda factor).  This module provides
P_n for n <= 6 from the determinant recurrence in xi, the three-term recurrence
on the matrix entries as an independent oracle, eigenvalue curves, envelope
sampling via eigenvector quadratic forms, and horizontal multiple-tangent
detection.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bipoly import ZetaPoly, rho_trim
from .errors import InvalidInputError, UnsupportedDimensionError
from .matrices import ReciprocalMatrix, as_xi, imag_part_spectrum

DEFAULT_GRID = 2048
DEGENERATE_GAP = 1e-9


@dataclass
class KippenhahnPolynomial:
    """P_n(zeta, rho) plus bookkeeping for the odd-n -lambda factor."""

    n: int
    poly: ZetaPoly

    @property
    def k(self):
        return self.n // 2

    @property
    def odd_flag(self):
        return self.n % 2 == 1

    def __call__(self, zeta, rho):
        return self.poly(zeta, rho)

    def char_value(self, lam, theta):
        """det(Re(e^{i theta} A) - lam I) reconstructed from P_n."""
        rho = math.cos(theta) ** 2
        v = self.poly(lam * lam, rho)
        return -lam * v if self.odd_flag else v

    def to_json_dict(self, exact=False):
        def fmt(c):
            if exact:
                f = c if isinstance(c, Fraction) else Fraction(c)
                return f"{f.numerator}/{f.denominator}"
            return float(c)

        return {"n": self.n, "coeffs": [[fmt(c) for c in cs] for cs in self.poly.coeffs]}


def closed_form_poly(xi, exact=False) -> KippenhahnPolynomial:
    """P_n(zeta, rho) for n in 2..6, from the xi-parameters.

    With ``exact`` the coefficients are Fractions (xi must then be rational-valued).
    """
    xi = as_xi(xi)
    if exact:
        x = [Fraction(v) if not isinstance(v, Fraction) else v for v in xi]
        one = Fraction(1)
    else:
        x = [float(v) for v in xi]
        one = 1.0
    return KippenhahnPolynomial(xi.n, build_poly_from_scalars(x, one))


def build_poly_from_scalars(x, one) -> ZetaPoly:
    """P_n(zeta, rho), n = len(x) + 1 in 2..6, over any scalar ring containing ``one``.

    With w_j = xi_j + rho the tridiagonal determinant recurrence
    D_j = -lam D_{j-1} - w_{j-1} D_{j-2} halves to E_0 = E_1 = 1,
    E_j = (zeta if j is even, else 1) E_{j-1} - w_{j-1} E_{j-2}, with zeta = lam^2;
    P_n = E_n, and D_n = -lam E_n for odd n.
    """
    n = len(x) + 1
    if n not in (2, 3, 4, 5, 6):
        raise UnsupportedDimensionError(f"closed form implemented for n in 2..6, got {n}")
    zero = one * 0
    prev, cur = [[one]], [[one]]
    for j in range(2, n + 1):
        xj = x[j - 2]
        nxt = [[zero]] + cur if j % 2 == 0 else list(cur)
        for i, c in enumerate(prev):  # nxt[i] -= (xj + rho) * c, with room for the rho shift
            a = nxt[i] + [zero] * (len(c) + 1 - len(nxt[i]))
            for k, v in enumerate(c):
                a[k] -= xj * v
                a[k + 1] -= v
            nxt[i] = a
        prev, cur = cur, nxt
    return ZetaPoly([rho_trim(c) for c in cur])


def determinant_poly_eval(matrix: ReciprocalMatrix, theta: float, lam: float) -> float:
    """det(Re(e^{i theta} A) - lam I) by the tridiagonal three-term recurrence.

    Works directly on the matrix entries, independent of the closed forms.
    """
    phase = cmath.exp(1j * theta)
    d_prev, d_cur = 1.0, -lam
    for a in matrix.superdiag:
        b = (phase * a + (1 / a).conjugate() * phase.conjugate()) / 2
        d_prev, d_cur = d_cur, -lam * d_cur - abs(b) ** 2 * d_prev
    return d_cur.real if isinstance(d_cur, complex) else d_cur


def _theta_array(theta_grid):
    if np.isscalar(theta_grid):
        m = int(theta_grid)
        if m < 1:
            raise InvalidInputError("theta grid must be non-empty")
        return np.linspace(0.0, 2 * math.pi, m, endpoint=False)
    arr = np.asarray(theta_grid, dtype=float)
    if arr.size == 0:
        raise InvalidInputError("theta grid must be non-empty")
    return arr


def hermitian_parts(matrix: ReciprocalMatrix, thetas: np.ndarray) -> np.ndarray:
    """Stack of Re(e^{i theta} A) over the grid, shape (T, n, n)."""
    A = matrix.dense()
    ph = np.exp(1j * thetas)
    return 0.5 * (ph[:, None, None] * A[None] + np.conj(ph)[:, None, None] * A.conj().T[None])


def eigencurves(matrix: ReciprocalMatrix, theta_grid=DEFAULT_GRID) -> tuple:
    """Eigenvalues of Re(e^{i theta} A), each row sorted non-increasing.

    Returns (thetas, lambdas) with lambdas of shape (T, n); column j-1 is the
    j-th largest eigenvalue curve.
    """
    thetas = _theta_array(theta_grid)
    H = hermitian_parts(matrix, thetas)
    w = np.linalg.eigvalsh(H)
    return thetas, w[:, ::-1]


@dataclass(frozen=True)
class CurveSample:
    """One envelope point: the tangent line at angle theta for branch j touches here."""

    theta: float
    branch: int  # 1-based, 1 = largest eigenvalue
    point: complex
    eigenvalue: float
    degenerate: bool = False


def envelope_points(matrix: ReciprocalMatrix, theta_grid=DEFAULT_GRID) -> list:
    """Envelope samples z = v* A v over unit eigenvectors of Re(e^{i theta} A).

    Each sample satisfies Re(e^{i theta} z) = lambda_j(theta): the point lies on
    its own tangent line.  For odd n the middle branch is pinned to the origin.
    At (numerically) repeated eigenvalues the 2x2 compression of A onto the
    eigenspace yields the two genuine tangency points; both are emitted and
    flagged degenerate.
    """
    thetas = _theta_array(theta_grid)
    n = matrix.n
    A = matrix.dense()
    H = hermitian_parts(matrix, thetas)
    w, V = np.linalg.eigh(H)  # ascending
    w = w[:, ::-1]
    V = V[:, :, ::-1]
    AV = np.einsum("tij,tjk->tik", np.broadcast_to(A, H.shape), V)
    z = np.einsum("tij,tij->tj", np.conj(V), AV)

    mid = (n + 1) // 2 if n % 2 == 1 else None
    samples = []
    for ti, theta in enumerate(thetas):
        gaps_ok = np.abs(np.diff(w[ti])) > DEGENERATE_GAP * max(1.0, np.max(np.abs(w[ti])))
        if mid is not None:
            # the middle branch is pinned to the origin; never cluster across it
            if mid - 2 >= 0:
                gaps_ok[mid - 2] = True
            if mid - 1 < len(gaps_ok):
                gaps_ok[mid - 1] = True
        handled = set()
        for j in range(n):
            branch = j + 1
            if branch == mid:
                samples.append(CurveSample(float(theta), branch, 0j, 0.0))
                continue
            lo_deg = j > 0 and not gaps_ok[j - 1]
            hi_deg = j < n - 1 and not gaps_ok[j]
            if not (lo_deg or hi_deg):
                samples.append(CurveSample(float(theta), branch, complex(z[ti, j]), float(w[ti, j])))
                continue
            if j in handled:
                continue
            # collect the full numerically-degenerate cluster starting at j
            jj = j
            while jj < n - 1 and not gaps_ok[jj]:
                jj += 1
            cluster = list(range(j, jj + 1))
            handled.update(cluster)
            Vc = V[ti][:, cluster]
            B = Vc.conj().T @ A @ Vc
            K = (cmath.exp(1j * theta) * B - (cmath.exp(1j * theta) * B).conj().T) / 2j
            kw, kv = np.linalg.eigh(K)
            lam = float(np.mean(w[ti, cluster]))
            for col in range(len(cluster)):
                u = Vc @ kv[:, col]
                zz = complex(np.conj(u) @ A @ u)
                samples.append(CurveSample(float(theta), cluster[0] + 1 + col, zz, lam, True))
    samples.sort(key=lambda s: (s.theta, s.branch))
    return samples


@dataclass(frozen=True)
class TangentLineEvent:
    """A horizontal line tangent to the curve at more than one point."""

    theta: float
    ordinate: float
    multiplicity: int
    shared_blocks: tuple  # ((0, k), (k, n)) for the zero-xi split index k, or ()


def detect_multiple_tangents(xi, tol=1e-9, method="auto") -> list:
    """Horizontal multiple tangent lines of the curve, from the xi-parameters.

    Closed-form criteria cover n in {4, 5, 6}; the numeric path (any n) scans the
    block splitting of Im A at vanishing xi entries for shared eigenvalues.  For
    odd n the structurally repeated ordinate 0 reflects the origin component and
    is not reported.
    """
    xi = as_xi(xi)
    n = xi.n
    if method == "auto":
        method = "closed_form" if n in (4, 5, 6) else "numeric"
    x = list(xi)
    scale = max([1.0] + x)

    def close(a, b):
        return abs(a - b) <= max(1e-12, tol * max(scale, abs(a), abs(b)))

    events = []

    def add(ordinate, mult, split):
        blocks = ((0, split), (split, n)) if split else ()
        for o in (ordinate, -ordinate) if ordinate > 0 else (0.0,):
            events.append(TangentLineEvent(math.pi / 2, o, mult, blocks))

    if method == "closed_form":
        if n == 4:
            if close(x[1], 0) and close(x[0], x[2]) and not close(x[0], 0):
                add(math.sqrt((x[0] + x[2]) / 2), 2, 2)
            if close(x[0], 0) and (x[1] > tol or x[2] > tol):
                add(0.0, 2, 1)
            elif close(x[2], 0) and (x[0] > tol or x[1] > tol):
                add(0.0, 2, 3)
        elif n == 5:
            if close(x[0] + x[1], x[2] + x[3]) and not close(x[0] + x[1], 0) and (
                close(x[1], 0) or close(x[2], 0)
            ):
                add(math.sqrt((x[0] + x[1] + x[2] + x[3]) / 2), 2, 2 if close(x[1], 0) else 3)
        elif n == 6:
            odd_prod_zero = close(x[0], 0) or close(x[2], 0) or close(x[4], 0)
            if odd_prod_zero:
                split = 1 if close(x[0], 0) else (3 if close(x[2], 0) else 5)
                add(0.0, 2, split)
            elif close(x[1], 0) and close(x[3], 0):
                pairs = [(x[0], x[2], 2), (x[0], x[4], 2), (x[2], x[4], 4)]
                seen = []
                for a, b, split in pairs:
                    if close(a, b) and not any(close(a, s) for s in seen):
                        seen.append(a)
                        add(math.sqrt((a + b) / 2), 2, split)
            elif close(x[1], 0):
                if close(x[0] * x[3], (x[0] - x[4]) * (x[0] - x[2])):
                    add(math.sqrt(x[0]), 2, 2)
            elif close(x[3], 0):
                if close(x[1] * x[4], (x[0] - x[4]) * (x[2] - x[4])):
                    add(math.sqrt(x[4]), 2, 4)
        else:
            raise UnsupportedDimensionError(f"closed-form tangent criteria cover n in 4..6, got {n}")
        return events

    # numeric path: any dimension
    atol = max(1e-12, tol * scale)
    zthr = max(1e-10, math.sqrt(atol))
    found = {}
    for split in range(1, n):  # boundary splits only ever share the eigenvalue 0
        if abs(x[split - 1]) > atol:
            continue
        # the diagonal blocks of Im A on either side of the vanishing xi
        left, right = imag_part_spectrum(x[: split - 1]), imag_part_spectrum(x[split:])
        for ev in left:
            hits = np.sum(np.abs(right - ev) <= zthr)
            if hits:
                ev = 0.0 if abs(ev) <= zthr else float(ev)
                if n % 2 == 1 and ev == 0.0:
                    continue  # odd n: the zero ordinate reflects the origin component
                key = round(ev, 9)
                found[key] = (ev, 1 + int(hits), split)
    for ev, mult, split in found.values():
        if ev >= 0:
            add(ev, mult, split)
    return events


def curve_components(samples, gap_factor=10.0) -> list:
    """Group envelope samples into closed components.

    Per-branch runs are split where consecutive points jump by more than
    ``gap_factor`` times the median inter-sample spacing, then runs are chained
    greedily across branches while endpoints stay within the same threshold.
    Returns a list of dicts {"points": ndarray, "kind": "loop"|"point"}.
    """
    pts_by_branch = {}
    for s in samples:
        pts_by_branch.setdefault(s.branch, []).append(s)
    origin = []
    arcs = []
    for branch, ss in sorted(pts_by_branch.items()):
        ss.sort(key=lambda s: s.theta)
        pts = np.array([s.point for s in ss])
        if np.all(np.abs(pts) < 1e-12):
            origin.append(np.array([0j]))
            continue
        deltas = np.abs(np.diff(pts))
        wrap = np.abs(pts[0] - pts[-1])
        med = np.median(np.concatenate([deltas, [wrap]]))
        thr = gap_factor * max(med, 1e-12)
        breaks = [i + 1 for i, d in enumerate(deltas) if d > thr]
        if not breaks:
            arcs.append(pts)
            continue
        idx = np.arange(len(pts))
        segs = np.split(idx, breaks)
        if len(segs) > 1 and wrap <= thr:
            segs[0] = np.concatenate([segs[-1], segs[0]])
            segs.pop()
        arcs.extend(pts[s] for s in segs if len(s) > 0)

    # chain arcs whose endpoints nearly coincide
    med_all = np.median(np.abs(np.diff(np.concatenate(arcs)))) if arcs else 0.0
    thr = gap_factor * max(med_all, 1e-12)
    chains = []
    used = [False] * len(arcs)
    for i in range(len(arcs)):
        if used[i]:
            continue
        chain = list(arcs[i])
        used[i] = True
        grew = True
        while grew:
            grew = False
            for j in range(len(arcs)):
                if used[j]:
                    continue
                a = arcs[j]
                pairs = [
                    (abs(chain[-1] - a[0]), "append", False),
                    (abs(chain[-1] - a[-1]), "append", True),
                    (abs(chain[0] - a[-1]), "prepend", False),
                    (abs(chain[0] - a[0]), "prepend", True),
                ]
                d, action, rev = min(pairs, key=lambda t: t[0])
                if d <= thr:
                    seg = list(a[::-1]) if rev else list(a)
                    chain = chain + seg if action == "append" else seg + chain
                    used[j] = True
                    grew = True
        chains.append(np.array(chain))

    # the +- symmetry traces every centered component twice, and multiple
    # tangents can shed tiny remnants lying on a larger chain: absorb any
    # chain already covered by a kept one
    chains.sort(key=len, reverse=True)
    comps = []
    for ch in chains:
        center = np.mean(ch)
        if np.max(np.abs(ch - center)) <= thr:
            ch = np.array([center])  # a degenerate component: a single point
        absorbed = False
        for kept in comps:
            kp = kept["points"]
            step = max(1, len(ch) // 256)
            probe = ch[::step]
            dmin = np.min(np.abs(probe[:, None] - kp[None, :]), axis=1)
            if np.max(dmin) <= 2 * thr:
                absorbed = True
                break
        if not absorbed:
            comps.append({"points": ch, "kind": "loop" if len(ch) > 1 else "point"})
    for o in origin:
        comps.append({"points": o, "kind": "point"})
    return comps


def samples_to_json(samples) -> list:
    return [
        {"theta": s.theta, "branch": s.branch, "re": s.point.real, "im": s.point.imag}
        for s in samples
    ]
