import math

import numpy as np

from conftest import FIG1
from reciprange.conics import best_fit_ellipse_residual, conic_sampson_residuals, fit_conic
from reciprange.kippenhahn import curve_components, envelope_points
from reciprange.matrices import matrix_from_xi


def ellipse_points(center, half_focal, minor, m=200, noise=0.0, rng=None):
    a = math.sqrt(minor**2 + half_focal**2)
    ts = np.linspace(0, 2 * math.pi, m, endpoint=False)
    pts = center + a * np.cos(ts) + 1j * minor * np.sin(ts)
    if noise and rng is not None:
        pts = pts + noise * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return pts


def ellipse_conic(center, half_focal, minor):
    """(A, B, C, D, E, F) of ((x - center)/a)^2 + (y/minor)^2 - 1 times
    a^2 minor^2, a^2 = minor^2 + half_focal^2."""
    a_sq, c_sq = minor * minor + half_focal * half_focal, minor * minor
    return c_sq, 0.0, a_sq, -2 * center * c_sq, 0.0, c_sq * center * center - a_sq * c_sq


def test_fit_recovers_ellipse():
    pts = ellipse_points(0.5, 1.2, 0.8)
    coeffs = fit_conic(pts)
    res = conic_sampson_residuals(pts, coeffs)
    assert np.max(res) < 1e-10


def test_prescribed_conic_residual_zero_on_members():
    pts = ellipse_points(-0.3, 0.9, 1.4)
    res = conic_sampson_residuals(pts, ellipse_conic(-0.3, 0.9, 1.4))
    assert np.max(res) < 1e-12


def test_sampson_approximates_geometric_offset():
    pts = ellipse_points(0.0, 0.0, 1.0)  # unit circle
    res = conic_sampson_residuals(pts * 1.01, ellipse_conic(0.0, 0.0, 1.0))
    assert np.allclose(res, 0.01, atol=1e-3)


def test_noise_floor_reflected_in_fit(rng):
    pts = ellipse_points(0.2, 1.0, 0.7, noise=1e-3, rng=rng)
    r = best_fit_ellipse_residual(pts)
    assert 1e-4 < r < 1e-2


def test_drop_components_are_not_ellipses():
    comps = curve_components(envelope_points(matrix_from_xi(list(FIG1)), 1024))
    loops = [c for c in comps if c["kind"] == "loop"]
    assert len(loops) == 2
    for c in loops:
        assert best_fit_ellipse_residual(c["points"]) > 1e-3


def test_elliptical_components_fit_cleanly():
    comps = curve_components(envelope_points(matrix_from_xi([1.0, 0.0, 1.0]), 1024))
    for c in comps:
        if c["kind"] == "loop":
            assert best_fit_ellipse_residual(c["points"]) < 1e-10
