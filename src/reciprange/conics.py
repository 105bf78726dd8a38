"""Conic least-squares fitting and Sampson (first-order geometric) residuals.

Used to check whether sampled curve components are ellipses: exactly-elliptical
components fit with residuals at eigensolver noise, while non-elliptical
("drop-shaped") components leave residuals orders of magnitude above that.
"""

from __future__ import annotations

import numpy as np


def fit_conic(points):
    """Least-squares algebraic conic through complex points.

    Returns coefficients (A, B, C, D, E, F) of Ax^2 + Bxy + Cy^2 + Dx + Ey + F,
    normalized to unit norm, from the smallest singular vector of the design
    matrix.
    """
    z = np.asarray(points, dtype=complex).ravel()
    x, y = z.real, z.imag
    design = np.stack([x * x, x * y, y * y, x, y, np.ones_like(x)], axis=1)
    _, _, vt = np.linalg.svd(design, full_matrices=False)
    coeffs = vt[-1]
    return coeffs / np.linalg.norm(coeffs)


def conic_sampson_residuals(points, coeffs):
    """First-order geometric (Sampson) distances |Q| / ||grad Q|| per point."""
    z = np.asarray(points, dtype=complex).ravel()
    x, y = z.real, z.imag
    A, B, C, D, E, F = coeffs
    q = A * x * x + B * x * y + C * y * y + D * x + E * y + F
    gx = 2 * A * x + B * y + D
    gy = B * x + 2 * C * y + E
    grad = np.hypot(gx, gy)
    grad = np.where(grad < 1e-300, 1.0, grad)
    return np.abs(q) / grad


def best_fit_ellipse_residual(points):
    """RMS Sampson distance of the points to their own least-squares conic."""
    coeffs = fit_conic(points)
    res = conic_sampson_residuals(points, coeffs)
    return float(np.sqrt(np.mean(res**2)))
