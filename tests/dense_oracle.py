"""Dense complex reference for the xi-only curve core of ``reciprange.kippenhahn``.

Builds Re(e^{i theta} A) and Im A from the matrix entries as complex n x n
matrices, solves them with complex ``eigh`` over the whole grid, and takes the
envelope points as the quadratic forms v* A v, with the compression of
Im(e^{i theta} A) onto each numerically repeated eigenspace.  It never uses
the xi-parameters, so the tests compare the real tridiagonal solve with it.
"""

from __future__ import annotations

import cmath

import numpy as np

from reciprange.kippenhahn import DEGENERATE_GAP


def real_part_at(matrix, theta: float) -> np.ndarray:
    """The Hermitian matrix Re(e^{i theta} A) = (e^{i theta} A + e^{-i theta} A*)/2."""
    B = cmath.exp(1j * theta) * matrix.dense()
    return (B + B.conj().T) / 2


def imag_part(matrix) -> np.ndarray:
    """Im A = (A - A*)/(2i)."""
    A = matrix.dense()
    return (A - A.conj().T) / 2j


def hermitian_parts(matrix, thetas) -> np.ndarray:
    """Stack of Re(e^{i theta} A) over the grid, shape (T, n, n)."""
    A = matrix.dense()
    ph = np.exp(1j * np.asarray(thetas, dtype=float))
    return 0.5 * (ph[:, None, None] * A[None] + np.conj(ph)[:, None, None] * A.conj().T[None])


def oracle_eigencurves(matrix, thetas) -> np.ndarray:
    """Eigenvalues of Re(e^{i theta} A), each row non-increasing, shape (T, n)."""
    return np.linalg.eigvalsh(hermitian_parts(matrix, thetas))[:, ::-1]


def oracle_envelope_points(matrix, thetas) -> list:
    """(theta, branch, point, eigenvalue, degenerate) tuples sorted by (theta, branch).

    Simple eigenvalues give z = v* A v; a cluster of eigenvalues closer than
    DEGENERATE_GAP (relative) gives the points u* A u over the eigenvectors u
    of the compression of Im(e^{i theta} A) onto its eigenspace, with the
    cluster's mean eigenvalue.  Odd n has no rule of its own: the middle
    branch, simple or in a cluster through 0, comes out at the origin
    within rounding, which checks the package's exact pin there.
    """
    thetas = np.asarray(thetas, dtype=float)
    n = matrix.n
    A = matrix.dense()
    H = hermitian_parts(matrix, thetas)
    w, V = np.linalg.eigh(H)
    w, V = w[:, ::-1], V[:, :, ::-1]
    z = np.einsum("tij,tij->tj", np.conj(V), np.einsum("ij,tjk->tik", A, V))
    samples = []
    for ti, theta in enumerate(thetas):
        gaps_ok = np.abs(np.diff(w[ti])) > DEGENERATE_GAP * max(1.0, np.max(np.abs(w[ti])))
        j = 0
        while j < n:
            jj = j
            while jj < n - 1 and not gaps_ok[jj]:
                jj += 1
            if jj == j:
                samples.append((float(theta), j + 1, complex(z[ti, j]), float(w[ti, j]), False))
                j += 1
                continue
            Vc = V[ti][:, j:jj + 1]
            B = cmath.exp(1j * theta) * (Vc.conj().T @ A @ Vc)
            _, kv = np.linalg.eigh((B - B.conj().T) / 2j)
            lam = float(np.mean(w[ti, j:jj + 1]))
            for col in range(jj + 1 - j):
                u = Vc @ kv[:, col]
                samples.append((float(theta), j + 1 + col, complex(np.conj(u) @ A @ u), lam, True))
            j = jj + 1
    samples.sort(key=lambda s: (s[0], s[1]))
    return samples


def oracle_continuation(matrix, delta=1e-4):
    """Where each branch of Re(e^{i theta} A) goes across theta = pi/2.

    Returns (sigma, overlap): sigma[j - 1] is the branch (1-based, 1 = largest
    eigenvalue) at pi/2 + delta whose eigenvector is closest to that of
    branch j at pi/2 - delta, and overlap is the smallest of those largest
    |v* w|; near 1 when the eigenvectors on the two sides match one to one.
    """
    before = np.linalg.eigh(real_part_at(matrix, np.pi / 2 - delta))[1][:, ::-1]
    after = np.linalg.eigh(real_part_at(matrix, np.pi / 2 + delta))[1][:, ::-1]
    overlap = np.abs(after.conj().T @ before)
    return np.argmax(overlap, axis=0) + 1, float(np.min(np.max(overlap, axis=0)))
