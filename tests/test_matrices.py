import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dense_oracle import imag_part, real_part_at
from reciprange.errors import InvalidInputError
from reciprange.kippenhahn import determinant_poly_eval
from reciprange.matrices import (
    ReciprocalMatrix,
    XiParameters,
    build_from_superdiagonal,
    exact_spectrum,
    flip,
    imag_part_spectrum,
    matrix_from_json_dict,
    matrix_from_xi,
)

PHI = (math.sqrt(5) + 1) / 2

xi_lists = st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6)
entries_st = st.lists(
    st.complex_numbers(min_magnitude=0.2, max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


def test_build_reciprocal_pair():
    m = build_from_superdiagonal([2])
    assert m.superdiag == (2 + 0j,)
    assert m.dense()[1, 0] == 0.5


def test_build_unit_entries_give_zero_xi():
    m = build_from_superdiagonal([1, 1, 1])
    assert m.xi().xi == (0.0, 0.0, 0.0)
    assert np.allclose(imag_part(m), 0)


def test_build_silver_ratio_entries():
    # 1/(1+sqrt2) = sqrt2 - 1, so xi = ((1+sqrt2) - (sqrt2-1))^2/4 = 1
    s2 = math.sqrt(2)
    m = build_from_superdiagonal([1 + s2, 1, 1 + s2])
    assert_allclose(m.xi().xi, (1.0, 0.0, 1.0), atol=1e-14)


def test_build_rejects_zero_entry():
    with pytest.raises(InvalidInputError, match="entry 1"):
        build_from_superdiagonal([1, 0, 2])


def test_xi_rejects_negative():
    with pytest.raises(InvalidInputError):
        XiParameters((1.0, -0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rejected(bad):
    with pytest.raises(InvalidInputError, match="xi\\[1\\] = .* is not finite"):
        XiParameters((1.0, bad, 1.0))
    with pytest.raises(InvalidInputError, match="entry 1 .* is not finite"):
        build_from_superdiagonal([2.0, bad, 2.0])
    with pytest.raises(InvalidInputError, match="entry 0 .* is not finite"):
        build_from_superdiagonal([complex(1.0, bad)])


@given(entries_st)
def test_reciprocal_invariant(entries):
    m = build_from_superdiagonal(entries)
    A = m.dense()
    j = np.arange(m.n - 1)
    assert np.all(np.abs(A[j, j + 1] * A[j + 1, j] - 1) < 1e-14)
    assert np.allclose(np.diag(A), 0)


def test_matrix_from_xi_values():
    s2 = math.sqrt(2)
    m = matrix_from_xi([0.0, 0.0, 0.0])
    assert_allclose([a.real for a in m.superdiag], [1, 1, 1])
    m = matrix_from_xi([1.0, 0.0, 1.0])
    assert_allclose([a.real for a in m.superdiag], [1 + s2, 1, 1 + s2], atol=1e-15)
    m = matrix_from_xi([1.0, PHI, 0.0])
    expected = [1 + s2, math.sqrt(PHI) + math.sqrt(PHI + 1), 1]
    assert_allclose([a.real for a in m.superdiag], expected, atol=1e-15)


def test_matrix_from_xi_rejects_negative():
    with pytest.raises(InvalidInputError):
        matrix_from_xi([-0.1, 1.0])


def test_matrix_from_xi_rejects_empty():
    # n = 1: build_from_superdiagonal refuses the empty superdiagonal alike
    with pytest.raises(InvalidInputError, match="n >= 2"):
        matrix_from_xi([])


@given(xi_lists)
def test_xi_round_trip(xi):
    m = matrix_from_xi(xi)
    assert_allclose(m.xi().xi, xi, atol=1e-12)


def test_real_part_theta_zero_real_matrix():
    m = matrix_from_xi([0.3, 0.7])
    A = m.dense()
    assert_allclose(real_part_at(m, 0.0), (A + A.T) / 2)


def test_real_part_theta_half_pi_is_minus_imag():
    m = build_from_superdiagonal([2 + 1j, 0.5 - 0.25j])
    assert_allclose(real_part_at(m, math.pi / 2), -imag_part(m), atol=1e-15)


def test_imag_part_eigenvalues_for_xi_101():
    m = matrix_from_xi([1.0, 0.0, 1.0])
    ev = np.linalg.eigvalsh(imag_part(m))
    assert_allclose(ev, [-1, -1, 1, 1], atol=1e-12)
    assert_allclose(imag_part_spectrum(m.xi()), ev, atol=1e-12)


@given(xi_lists, st.lists(st.floats(0, 2 * math.pi), min_size=6, max_size=6))
def test_imag_part_spectrum_matches_dense_im_a(xi, phases):
    # Im A from the entries, any phases, against the xi-only tridiagonal
    entries = [(math.sqrt(x) + math.sqrt(x + 1)) * complex(math.cos(p), math.sin(p))
               for x, p in zip(xi, phases)]
    ev = np.linalg.eigvalsh(imag_part(build_from_superdiagonal(entries)))
    assert_allclose(imag_part_spectrum(xi), ev, atol=1e-12 * max(1.0, *xi))


def test_flip_reverses_xi():
    m = matrix_from_xi([1.0, 2.0, 3.0])
    assert_allclose(flip(m).xi().xi, (3.0, 2.0, 1.0), atol=1e-12)


@given(entries_st)
def test_flip_involution(entries):
    m = build_from_superdiagonal(entries)
    m2 = flip(flip(m))
    assert_allclose(np.array(m2.superdiag), np.array(m.superdiag), atol=1e-14)


def test_flip_preserves_char_poly():
    rng = np.random.default_rng(1)
    m = matrix_from_xi([1.0, 2.0, 3.0])
    f = flip(m)
    for _ in range(100):
        th = rng.uniform(0, 2 * math.pi)
        lam = rng.uniform(-3, 3)
        assert abs(determinant_poly_eval(m, th, lam) - determinant_poly_eval(f, th, lam)) < 1e-9


def test_exact_spectrum_values():
    s = exact_spectrum(4)
    assert s == tuple(sorted(s, reverse=True))
    assert_allclose(sorted(s), sorted([PHI, 1 / PHI, -1 / PHI, -PHI]), atol=1e-15)
    s = exact_spectrum(5)
    assert_allclose(sorted(s), sorted([math.sqrt(3), 1, 0, -1, -math.sqrt(3)]), atol=1e-15)
    s = exact_spectrum(6)
    expect = [2 * math.cos(j * math.pi / 7) for j in range(1, 7)]
    assert_allclose(sorted(s), sorted(expect), atol=1e-15)


@given(xi_lists, st.lists(st.floats(0, 2 * math.pi), min_size=1, max_size=6))
def test_spectrum_formula_any_phases(xi, phase_seed):
    n = len(xi) + 1
    phases = (phase_seed * ((n - 1) // len(phase_seed) + 1))[: n - 1]
    entries = [
        (math.sqrt(x) + math.sqrt(x + 1)) * complex(math.cos(p), math.sin(p))
        for x, p in zip(xi, phases)
    ]
    m = build_from_superdiagonal(entries)
    ev = np.sort(np.linalg.eigvals(m.dense()).real)
    assert_allclose(ev, np.sort(exact_spectrum(n)), atol=1e-9)


def test_xi_invariance_of_char_poly(rng):
    # same xi, different phases: identical Kippenhahn polynomials
    xi = [0.8, 1.7, 0.2, 1.1]
    m1 = matrix_from_xi(xi)
    entries = [a * np.exp(1j * t) for a, t in zip(m1.superdiag, rng.uniform(0, 2 * np.pi, 4))]
    m2 = build_from_superdiagonal(entries)
    for _ in range(50):
        th = rng.uniform(0, 2 * np.pi)
        lam = rng.uniform(-3, 3)
        assert abs(determinant_poly_eval(m1, th, lam) - determinant_poly_eval(m2, th, lam)) < 1e-9


def test_matrix_json_round_trip():
    m = build_from_superdiagonal([2 + 1j, 0.25])
    m2 = matrix_from_json_dict({"n": 3, "superdiag": [[2.0, 1.0], [0.25, 0.0]]})
    assert m2.superdiag == m.superdiag


def test_matrix_json_xi_form():
    m = matrix_from_json_dict({"xi": [1.0, 0.0, 1.0]})
    assert isinstance(m, ReciprocalMatrix)
    assert_allclose(m.xi().xi, (1.0, 0.0, 1.0), atol=1e-12)


def test_matrix_json_forms_exclusive():
    with pytest.raises(InvalidInputError):
        matrix_from_json_dict({"xi": [1.0], "superdiag": [[1.0, 0.0]]})
    with pytest.raises(InvalidInputError):
        matrix_from_json_dict({"n": 3})
    with pytest.raises(InvalidInputError):
        matrix_from_json_dict({"n": 5, "superdiag": [[1.0, 0.0]]})
    # the xi form gave an n = 3 matrix here
    with pytest.raises(InvalidInputError, match='"n"=7 inconsistent with 2 xi values'):
        matrix_from_json_dict({"n": 7, "xi": [1.0, 2.0]})
    assert matrix_from_json_dict({"n": 3, "xi": [1.0, 2.0]}).n == 3
