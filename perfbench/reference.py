"""Reference computations for the benchmark's output checks.

Everything here is computed from matrix entries, closed-form constants and
numpy's dense eigensolvers alone; nothing imports ``reciprange``, so a check
built on these functions does not reuse the code it checks.
"""

from __future__ import annotations

import math

import numpy as np


def entries_from_xi(xi, phases=None):
    """Superdiagonal with |a_j| = sqrt(xi_j) + sqrt(xi_j + 1), times optional unit phases.

    (|a| - 1/|a|)^2 / 4 = xi for this modulus, whatever the phase.
    """
    mods = [math.sqrt(x) + math.sqrt(x + 1) for x in xi]
    if phases is None:
        return [complex(m) for m in mods]
    return [m * complex(math.cos(p), math.sin(p)) for m, p in zip(mods, phases)]


def dense(superdiag):
    """The n x n matrix with zero diagonal, a_j above it and 1/a_j below it."""
    a = np.asarray(superdiag, dtype=complex)
    n = a.size + 1
    A = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    A[idx, idx + 1] = a
    A[idx + 1, idx] = 1 / a
    return A


def real_part_eigenvalues(superdiag, thetas):
    """Eigenvalues of Re(e^{i theta} A) = (e^{i theta} A + e^{-i theta} A*)/2.

    Shape (T, n); each row is sorted non-increasing, so column j - 1 is
    lambda_j(theta).
    """
    A = dense(superdiag)
    ph = np.exp(1j * np.asarray(thetas, dtype=float))[:, None, None]
    B = ph * A[None]
    H = (B + np.conj(np.swapaxes(B, 1, 2))) / 2
    return np.linalg.eigvalsh(H)[:, ::-1]


def imag_part_eigenvalues(superdiag):
    """Eigenvalues of Im A = (A - A*)/(2i), ascending."""
    A = dense(superdiag)
    return np.linalg.eigvalsh((A - A.conj().T) / 2j)


def spectrum(n):
    """2 cos(j pi/(n+1)), j = 1..n: the spectrum every reciprocal n x n matrix shares."""
    return np.array([2 * math.cos(j * math.pi / (n + 1)) for j in range(1, n + 1)])


def ellipse_support(center, half_focal, minor, thetas):
    """Largest and smallest Re(e^{i theta} z) over the ellipse with real center p,
    foci p +- X and minor half-axis c: p cos(theta) +- sqrt(a^2 cos^2 + c^2 sin^2),
    with a^2 = c^2 + X^2."""
    c, s = np.cos(thetas), np.sin(thetas)
    r = np.sqrt((minor * minor + half_focal * half_focal) * c * c + minor * minor * s * s)
    return center * c + r, center * c - r


def union_support_values(ellipses, origin, thetas):
    """For each theta, the sorted (non-increasing) support values of a union of
    ellipses, given as (center, half_focal, minor) triples, plus 0 for the origin
    component of odd n.  Shape (T, 2 * len(ellipses) + origin)."""
    cols = []
    for p, X, c in ellipses:
        hi, lo = ellipse_support(p, X, c, thetas)
        cols += [hi, lo]
    if origin:
        cols.append(np.zeros(len(thetas)))
    return -np.sort(-np.stack(cols, axis=1), axis=1)


def focal_residual(z, center, half_focal, minor):
    """| |z - f1| + |z - f2| - 2a |: zero exactly on the ellipse's boundary."""
    a = math.sqrt(minor * minor + half_focal * half_focal)
    return np.abs(np.abs(z - (center - half_focal)) + np.abs(z - (center + half_focal)) - 2 * a)


def support_function(points, thetas, chunk=512):
    """h(theta) = max over the points of Re(e^{i theta} z) = x cos(theta) - y sin(theta)."""
    pts = np.asarray(points, dtype=complex)
    xy = np.stack([pts.real, pts.imag], axis=1)
    dirs = np.stack([np.cos(thetas), -np.sin(thetas)])
    out = np.empty(len(thetas))
    for i in range(0, len(thetas), chunk):
        out[i:i + chunk] = np.max(xy @ dirs[:, i:i + chunk], axis=0)
    return out


def convex_hausdorff(points_a, points_b, directions=8192):
    """Hausdorff distance of the convex hulls of two point sets, as the largest
    gap between their support functions over ``directions`` unit directions.

    For convex bodies d_H(A, B) = max over unit u of |h_A(u) - h_B(u)|; the
    sampled maximum approaches it from below as the directions get denser.
    """
    thetas = np.linspace(0.0, 2 * math.pi, directions, endpoint=False)
    return float(np.max(np.abs(support_function(points_a, thetas) - support_function(points_b, thetas))))
