"""Kippenhahn polynomials and curves of reciprocal matrices.

The characteristic polynomial det(Re(e^{i theta} A) - lambda I) of a reciprocal
matrix collapses, after zeta = lambda^2 and rho = cos^2(theta), to a polynomial
P_n(zeta, rho) of zeta-degree floor(n/2) whose coefficients depend only on the
xi-parameters (odd n carries an extra -lambda factor).  This module provides
P_n for n <= 6 from the determinant recurrence in xi, the three-term recurrence
on the matrix entries as an independent oracle, eigenvalue curves and envelope
samples from the real symmetric tridiagonal T(rho) the curve reduces to
(again xi only), and horizontal multiple-tangent detection.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

from .bipoly import ZetaPoly, rho_trim
from .errors import InvalidInputError, UnsupportedDimensionError
from .matrices import ReciprocalMatrix, as_xi, check_xi_bound, symmetric_tridiagonal

DEFAULT_GRID = 2048
MIN_GRID = 8  # the fewest thetas a clip of Lambda_k takes: normals pi/4 apart at most
DEGENERATE_GAP = 1e-9
GLUE_RHO = 1e-8  # rho of the T whose eigenvectors glue the arcs at rho = 0, relative to max(1, max xi)
POINT_EXTENT = 1e-6  # a curve component this close to its mean, relative to max(1, max |z|), is a point


def closed_form_poly(xi) -> ZetaPoly:
    """P_n(zeta, rho) in floats for n in 2..6, from the xi-parameters; other
    rings go through ``build_poly_from_scalars``.

    det(Re(e^{i theta} A) - lam I) is P(lam * lam, cos(theta) ** 2), times
    -lam for odd n.
    """
    return build_poly_from_scalars([float(v) for v in as_xi(xi)], 1.0)


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
    """The m equispaced thetas on [0, 2 pi) of a grid size m, an integer
    (numpy integers included)."""
    # np.isscalar, as operator.index takes a 0-d integer array
    if not (np.isscalar(theta_grid) and hasattr(theta_grid, "__index__")):
        raise InvalidInputError(f"theta grid size must be an integer, got {theta_grid!r:.60}")
    m = operator.index(theta_grid)
    if m < 1:
        raise InvalidInputError("theta grid must be non-empty")
    return np.linspace(0.0, 2 * math.pi, m, endpoint=False)


def _tridiagonal(xi, thetas):
    """Off-diagonals (T, n - 1) of the real symmetric T(rho) behind the curve.

    Re(e^{i theta} A) has off-diagonals b_j with |b_j|^2 = xi_j + rho,
    rho = cos^2 theta, whatever the entry phases, so the diagonal unitary D
    with d_{j+1} = d_j conj(b_j)/|b_j| (phase 1 where b_j = 0) turns it into
    T(rho): zero diagonal, off-diagonals sqrt(xi_j + rho).  Any finite xi
    gives finite values; the S that D makes of Im(e^{i theta} A) is built in
    ``envelope_points``, the one caller that needs it.
    """
    x = np.asarray(as_xi(xi).xi, dtype=float)
    cos = np.cos(thetas)[:, None]
    return np.sqrt(x + cos * cos)


def _fold(m):
    """The solved row each row of the m-point grid copies: row i folds onto
    min(i, m - i), and for even m once more onto min(r, m/2 - r), all of the
    same cos^2 theta."""
    row = np.arange(m)
    row = np.minimum(row, m - row)
    if m % 2 == 0:
        row = np.minimum(row, m // 2 - row)
    return row


def eigencurves(xi, theta_grid=DEFAULT_GRID) -> tuple:
    """Eigenvalues of Re(e^{i theta} A), each row sorted non-increasing.

    ``xi`` is an XiParameters, a sequence of xi values or a ReciprocalMatrix.
    Returns (thetas, lambdas) with lambdas of shape (T, n); column j-1 is the
    j-th largest eigenvalue curve.  The rows depend on theta only through
    rho = cos^2 theta, so the grid of size ``theta_grid`` is solved on theta
    in [0, pi/2] only ([0, pi] for odd m) and each row is copied to its
    mirrors (see ``_fold``), which are then bitwise equal.
    """
    thetas = _theta_array(theta_grid)
    row = _fold(thetas.size)
    t = _tridiagonal(xi, thetas[: row.max() + 1])
    return thetas, np.linalg.eigvalsh(symmetric_tridiagonal(t))[row, ::-1]


def envelope_points(xi, theta_grid=DEFAULT_GRID) -> np.recarray:
    """Envelope samples z = v* A v over unit eigenvectors v of Re(e^{i theta} A).

    ``xi`` is an XiParameters, a sequence of xi values or a ReciprocalMatrix.
    Returns a record array sorted by (theta, branch), with fields theta,
    branch (1-based, 1 = largest eigenvalue), point, eigenvalue, degenerate
    and loop.  Each sample satisfies Re(e^{i theta} z) = lambda_j(theta):
    the point lies on its own tangent line.  For odd n the middle branch is
    pinned to the origin.  At (numerically) repeated eigenvalues the
    compression of Im(e^{i theta} A) onto the eigenspace yields the genuine
    tangency points, ordered by the compression's eigenvalue mu ascending;
    they are flagged degenerate and carry the cluster's mean eigenvalue.

    The grid of size ``theta_grid`` is solved on theta in [0, pi/2] only
    ([0, pi] for odd m) and the other rows are mirrored from it (see
    ``_fold``), by
    z(-theta, j) = conj z(theta, j) and z(pi - theta, j) = conj z(theta, n + 1 - j):
    eigenvalues copy their row, points and degenerate flags follow the branch
    reversal, and a conjugated row lists each degenerate cluster in reverse,
    as conjugation negates mu.  Mirrored samples are bitwise equal.  The
    float signs of cos and sin at the two grid angles pick the symmetry, so
    the grid's 3 pi/2 is the image of its pi/2 under theta -> theta + pi when
    their cos differ in sign.  xi above MAX_XI, where S's xi (xi + 1)
    overflows, is refused.

    ``loop`` labels the samples of one closed curve component, traced once
    in theta order, by the branch of its cos theta > 0 arc; it is 0 on the
    rows at theta = pi/2 and 3 pi/2 and on a second trace of a labelled
    component.  Branches are glued across rho = 0 by continuation (see the
    comment in the code), so the labels are the same on every grid.
    """
    xi = as_xi(xi)
    check_xi_bound(xi, "envelope_points takes")
    thetas = _theta_array(theta_grid)
    row = _fold(thetas.size)
    # row i is its solved row under the symmetry that carries the float signs
    # of cos and sin: rev where cos changes sign, conj where one of them does
    neg_cos, neg_sin = np.signbit(np.cos(thetas)), np.signbit(np.sin(thetas))
    rev = neg_cos != neg_cos[row]
    conj = rev ^ (neg_sin != neg_sin[row])
    base = thetas[: row.max() + 1]  # the solved rows
    t = _tridiagonal(xi, base)
    # D of _tridiagonal turns Im(e^{i theta} A) into the Hermitian S: zero
    # diagonal, off-diagonals (sin theta cos theta - i sqrt(xi_j (xi_j + 1)))
    # / sqrt(xi_j + rho), or sin theta where sqrt(xi_j + rho) = 0; so v = D u
    # has v* A v = e^{-i theta} (u* T u + i u* S u)
    x = np.asarray(xi.xi, dtype=float)
    cos, sin = np.cos(base)[:, None], np.sin(base)[:, None]
    s = np.divide(sin * cos - 1j * np.sqrt(x * (x + 1)), t,
                  out=np.repeat(sin.astype(complex), x.size, axis=1), where=t > 0)
    n = x.size + 1
    w, U = np.linalg.eigh(symmetric_tridiagonal(t))  # ascending
    w, U = w[:, ::-1], U[:, :, ::-1]
    # u real: u* T u = lambda and u* S u = u.Re(S)u
    phase = np.exp(-1j * base)[:, None]
    z = phase * (w + 2j * np.einsum("tj,tjk->tk", s.real, U[:, :-1, :] * U[:, 1:, :]))
    scale = np.maximum(1.0, np.max(np.abs(w), axis=1, keepdims=True))
    close = np.abs(np.diff(w, axis=1)) <= DEGENERATE_GAP * scale
    mid = (n + 1) // 2 if n % 2 == 1 else None
    if mid is not None:
        # the middle branch is pinned to the origin; never cluster across it
        close[:, max(mid - 2, 0):mid] = False
        w[:, mid - 1] = 0.0
    degenerate = np.zeros(w.shape, dtype=bool)
    flip = np.tile(np.arange(n), (base.size, 1))  # column order of a conjugated row
    for ti in np.flatnonzero(close.any(axis=1)):
        # a run of close gaps a..b-1 is the cluster of columns a..b
        edges = np.flatnonzero(np.diff(np.concatenate(([0], close[ti], [0]))))
        for a, b in zip(edges[::2], edges[1::2]):
            cols = slice(a, b + 1)
            Uc = U[ti, :, cols]
            K = Uc[:-1].T @ (s[ti, :, None] * Uc[1:])  # the upper half of Uc.T S Uc
            mu, kv = np.linalg.eigh(K + K.conj().T)
            z[ti, cols] = phase[ti] * (np.abs(kv.T) ** 2 @ w[ti, cols] + 1j * mu)
            w[ti, cols] = np.mean(w[ti, cols])
            degenerate[ti, cols] = True
            flip[ti, cols] = flip[ti, cols][::-1]
    col = np.where(rev[:, None], np.arange(n)[::-1], np.arange(n))
    z = z[row[:, None], np.where(conj[:, None], np.take_along_axis(flip[row], col, axis=1), col)]
    z[conj] = np.conj(z[conj])
    if mid is not None:
        z[:, mid - 1] = 0
    # loops: for rho > 0 the eigenvalues are simple, so branch j is one
    # analytic arc on cos theta > 0 and one on cos theta < 0.  At rho = 0 it
    # goes on as branch sigma(j), whose eigenvector of T(rho0) is closest to
    # F u_j, F = diag(+-1) flipping the sign after each xi that T(rho0) does
    # not tell from 0 (as D does there when cos theta changes sign).  The
    # pi-shift makes the cos < 0 arc of branch l the cos > 0 arc of n + 1 - l,
    # so loop j is the cos > 0 arc of j, then the cos < 0 arc of sigma(j);
    # p(j) = n + 1 - sigma(j) traces the same loop, and p(j) = j closes on its
    # own.  The rows at rho = 0, found by index as float cos(pi/2) > 0, go to
    # no loop (label 0): there a cluster is ordered by mu, not by continuation
    rho0 = GLUE_RHO * max(1.0, float(np.max(x)))
    u = np.linalg.eigh(symmetric_tridiagonal(np.sqrt(x + rho0)))[1][:, ::-1]
    f = np.cumprod(np.concatenate(([1.0], np.where(x + rho0 == rho0, -1.0, 1.0))))
    sigma = np.argmax(np.abs(u.T @ (f[:, None] * u)), axis=0)  # 0-based, as p
    p = n - 1 - sigma
    q = 4 * np.arange(thetas.size)
    loop = np.zeros((thetas.size, n), dtype=int)
    loop[(q < thetas.size) | (q > 3 * thetas.size)] = np.where(np.arange(n) <= p, np.arange(1, n + 1), 0)
    loop[(q > thetas.size) & (q < 3 * thetas.size)] = np.where(sigma < p[sigma], sigma + 1, 0)
    samples = np.rec.fromarrays(
        [np.repeat(thetas, n), np.tile(np.arange(1, n + 1), thetas.size), z.ravel(), w[row].ravel(),
         degenerate[row[:, None], col].ravel(), loop.ravel()],
        names="theta,branch,point,eigenvalue,degenerate,loop",
    )
    return samples[np.lexsort((samples.branch, samples.theta))]


def detect_multiple_tangents(xi, tol=1e-9) -> list:
    """Ordinates y of the horizontal lines Im z = y tangent to the curve at two
    points, from the xi-parameters, by the closed-form criteria for n in
    {4, 5, 6}.  For odd n the structurally repeated ordinate 0 reflects the
    origin component and is not reported.
    """
    xi = as_xi(xi)
    n = xi.n
    if n not in (4, 5, 6):
        raise UnsupportedDimensionError(f"tangent criteria cover n in 4..6, got {n}")
    x = list(xi)
    scale = max([1.0] + x)

    def close(a, b):
        return abs(a - b) <= max(1e-12, tol * max(scale, abs(a), abs(b)))

    ordinates = []

    def add(ordinate):
        ordinates.extend((ordinate, -ordinate) if ordinate > 0 else (0.0,))

    if n == 4:
        if close(x[1], 0) and close(x[0], x[2]) and not close(x[0], 0):
            add(math.sqrt((x[0] + x[2]) / 2))
        if (close(x[0], 0) and (x[1] > tol or x[2] > tol)) or (close(x[2], 0) and (x[0] > tol or x[1] > tol)):
            add(0.0)
    elif n == 5:
        if close(x[0] + x[1], x[2] + x[3]) and not close(x[0] + x[1], 0) and (
            close(x[1], 0) or close(x[2], 0)
        ):
            add(math.sqrt((x[0] + x[1] + x[2] + x[3]) / 2))
    elif n == 6:
        if close(x[0], 0) or close(x[2], 0) or close(x[4], 0):
            add(0.0)
        elif close(x[1], 0) and close(x[3], 0):
            seen = []
            for a, b in ((x[0], x[2]), (x[0], x[4]), (x[2], x[4])):
                if close(a, b) and not any(close(a, s) for s in seen):
                    seen.append(a)
                    add(math.sqrt((a + b) / 2))
        elif close(x[1], 0):
            if close(x[0] * x[3], (x[0] - x[4]) * (x[0] - x[2])):
                add(math.sqrt(x[0]))
        elif close(x[3], 0):
            if close(x[1] * x[4], (x[0] - x[4]) * (x[2] - x[4])):
                add(math.sqrt(x[4]))
    return ordinates


def curve_components(samples) -> list:
    """Group envelope samples (the record array of envelope_points) into closed components.

    Each loop label of ``envelope_points`` is one component, its samples in
    theta order.  A component within POINT_EXTENT (relative to the largest
    |z|, or absolute below 1) of its mean is the point at that mean.
    Returns a list of dicts {"points": ndarray, "kind": "loop"|"point"},
    in label order.
    """
    tol = POINT_EXTENT * max(1.0, float(np.max(np.abs(samples.point))))
    comps = []
    for label in np.unique(samples.loop[samples.loop > 0]):
        pts = samples.point[samples.loop == label]
        center = np.mean(pts)
        if np.max(np.abs(pts - center)) <= tol:
            comps.append({"points": np.array([center]), "kind": "point"})
        else:
            comps.append({"points": pts, "kind": "loop"})
    return comps


def samples_to_json(samples) -> np.ndarray:
    """The envelope samples as ``jsonio.dumps`` writes them: a structured
    array with fields theta, branch, re and im, one row per sample."""
    out = np.empty(samples.size, dtype=[("theta", "f8"), ("branch", int), ("re", "f8"), ("im", "f8")])
    out["theta"], out["branch"] = samples.theta, samples.branch
    out["re"], out["im"] = samples.point.real, samples.point.imag
    return out
