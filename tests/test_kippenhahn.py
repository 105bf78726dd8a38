import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import FIG5
from dense_oracle import oracle_eigencurves, oracle_envelope_points
from poly_oracle import block_split_tangent_ordinates, hand_written_poly
from reciprange.errors import InvalidInputError, UnsupportedDimensionError
from reciprange.kippenhahn import (
    build_poly_from_scalars,
    closed_form_poly,
    curve_components,
    detect_multiple_tangents,
    determinant_poly_eval,
    eigencurves,
    envelope_points,
    samples_to_json,
)
from reciprange.matrices import (
    MAX_XI,
    build_from_superdiagonal,
    exact_spectrum,
    imag_part_spectrum,
    matrix_from_xi,
)
from reciprange.ranges import rank_k_numeric

PHI = (math.sqrt(5) + 1) / 2


def poly_xi(n):
    return st.lists(st.floats(0.0, 3.0), min_size=n - 1, max_size=n - 1)


def test_closed_form_n4_example():
    # xi = (1,0,1): zeta^2 - (2+3rho) zeta + (1+rho)^2
    P = closed_form_poly([1.0, 0.0, 1.0])
    assert P.coeffs[2] == [1.0]
    assert P.coeffs[1] == [-2.0, -3.0]
    assert P.coeffs[0] == [1.0, 2.0, 1.0]


def test_closed_form_n5_all_zero():
    # zeta^2 - 4 rho zeta + 3 rho^2
    P = closed_form_poly([0.0] * 4)
    assert P.coeffs[1] == [0.0, -4.0]
    assert P.coeffs[0] == [0.0, 0.0, 3.0]


def test_closed_form_n6_value_check():
    P = closed_form_poly([0.0] * 5)
    assert P(1.0, 0.0) == 1.0


def test_closed_form_unsupported_dimension():
    with pytest.raises(UnsupportedDimensionError):
        closed_form_poly([1.0] * 6)  # n = 7


def test_rho_degree_bound_exact():
    for n in (2, 3, 4, 5, 6):
        P = build_poly_from_scalars([Fraction(j + 1, 3) for j in range(n - 1)], Fraction(1))
        k = n // 2
        for j in range(k + 1):
            assert max((i for i, c in enumerate(P.coeffs[j]) if c), default=-1) <= k - j
        assert P.coeffs[-1] == [Fraction(1)]


def test_determinant_example_n2():
    m = build_from_superdiagonal([2])
    assert abs(determinant_poly_eval(m, 0.0, 0.0) + 25 / 16) < 1e-15


def test_determinant_zero_at_unit_eigenvalue():
    m = matrix_from_xi([1.0, 0.0, 1.0])
    assert abs(determinant_poly_eval(m, math.pi / 2, 1.0)) < 1e-12


@given(st.sampled_from([2, 3, 4, 5, 6]), st.data())
def test_closed_form_matches_determinant(n, data):
    xi = data.draw(poly_xi(n))
    theta = data.draw(st.floats(0, 2 * math.pi))
    lam = data.draw(st.floats(-3, 3))
    m = matrix_from_xi(xi)
    P = closed_form_poly(xi)
    d = determinant_poly_eval(m, theta, lam)
    v = P(lam * lam, math.cos(theta) ** 2) * (-lam if n % 2 else 1)
    assert abs(d - v) <= 1e-9 * max(1.0, abs(d), abs(v))


# rationals with zeros; each is taken through float, as closed_form_poly does
rational_xi = st.one_of(st.just(Fraction(0)), st.fractions(0, 5, max_denominator=1000)).map(
    lambda v: Fraction(float(v))
)


@given(st.integers(2, 6).flatmap(lambda n: st.lists(rational_xi, min_size=n - 1, max_size=n - 1)))
def test_recurrence_matches_hand_written_forms(x):
    P = build_poly_from_scalars(x, Fraction(1))
    assert P.coeffs == hand_written_poly(x, Fraction(1)).coeffs
    xf = [float(v) for v in x]
    Pf, Of = closed_form_poly(xf), hand_written_poly(xf, 1.0)
    assert [len(c) for c in Pf.coeffs] == [len(c) for c in Of.coeffs]
    ref = max(1.0, Of.max_abs_coeff())
    for a, b in zip(Pf.coeffs, Of.coeffs):
        assert_allclose(a, b, rtol=0, atol=1e-12 * ref)


def test_eigencurves_n2():
    m = build_from_superdiagonal([2])
    _, lam = eigencurves(m, 1)  # theta = 0
    assert_allclose(lam[0], [1.25, -1.25])


def test_eigencurves_all_zero_scaled_spectrum(rng):
    for n in (3, 4, 5):
        m = matrix_from_xi([0.0] * (n - 1))
        thetas, lam = eigencurves(m, rng.integers(8, 64))
        spec = np.sort(exact_spectrum(n))[::-1]
        for t, row in zip(thetas, lam):
            assert_allclose(row, np.sort(np.cos(t) * spec)[::-1], atol=1e-12)


def test_eigencurves_n4_quadruple():
    m = matrix_from_xi([1.0, 0.0, 1.0])
    _, lam = eigencurves(m, 4)  # theta = 0, pi/2, pi, 3 pi/2
    assert_allclose(lam[1], [1, 1, -1, -1], atol=1e-12)


@given(st.sampled_from([2, 3, 4, 5, 6]), st.data())
def test_eigencurve_antisymmetry(n, data):
    xi = data.draw(poly_xi(n))
    m = matrix_from_xi(xi)
    thetas, lam = eigencurves(m, 16)
    assert_allclose(oracle_eigencurves(m, thetas + np.pi), -lam[:, ::-1], atol=1e-9)


@pytest.mark.parametrize("m", [8, 9, 10, 11, 2048, 2050])
def test_eigencurves_grid_fold(m, rng):
    # lambda depends on theta only through cos^2 theta: rows j, m - j and, for
    # even m, m/2 - j come from one solve, and each matches the dense solve
    # of its own theta
    for n in (2, 5, 6, 7):
        xi = rng.uniform(0.0, 2.5, n - 1)
        thetas, lam = eigencurves(xi, m)
        j = np.arange(m)
        assert np.array_equal(lam, lam[(m - j) % m])
        if m % 2 == 0:
            assert np.array_equal(lam, lam[(m // 2 - j) % m])
        each = oracle_eigencurves(matrix_from_xi(xi), thetas)
        assert np.all(np.abs(lam - each) <= 1e-14 * np.max(np.abs(each), axis=1, keepdims=True))


# --- the xi-only tridiagonal core against the dense complex oracle ---

def _entries(xi, phases, inverted):
    """Superdiagonal with these xi: modulus sqrt(xi) + sqrt(xi + 1), or its
    reciprocal (|a| < 1) where inverted, times e^{i phase}."""
    mods = [math.sqrt(x) + math.sqrt(x + 1) for x in xi]
    return [(1 / m if inv else m) * complex(math.cos(p), math.sin(p))
            for m, p, inv in zip(mods, phases, inverted)]


def _pinned_kernel(xi):
    """Odd n whose Im A has a kernel of dimension >= 3.  At rho = 0 the
    pinned middle branch then leaves branches mid +- 1 as arbitrary vectors
    of that kernel, in the oracle as in the package, so the two cannot agree."""
    return len(xi) % 2 == 0 and np.sum(np.abs(imag_part_spectrum(xi)) < 1e-9) >= 3


def _close(got, want, tol=1e-12):
    want = np.asarray(want)
    return np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


def _assert_matches_dense(matrix, grid=64):
    """Same (theta, branch) rows and degenerate flags; every value within
    1e-12 max(1, |value|) of the oracle's on the grid of size ``grid``."""
    thetas = np.linspace(0, 2 * np.pi, grid, endpoint=False)
    _, lam = eigencurves(matrix, grid)
    assert _close(lam, oracle_eigencurves(matrix, thetas))
    got = envelope_points(matrix, grid)
    want = oracle_envelope_points(matrix, thetas)
    assert list(zip(got.theta.tolist(), got.branch.tolist())) == [s[:2] for s in want]
    assert got.degenerate.tolist() == [s[4] for s in want]
    assert _close(got.point, [s[2] for s in want])
    assert _close(got.eigenvalue, [s[3] for s in want])


xi_or_zero = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
phase = st.floats(0, 2 * math.pi)


@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.lists(xi_or_zero, min_size=n - 1, max_size=n - 1),
    st.lists(phase, min_size=n - 1, max_size=n - 1),
    st.lists(st.booleans(), min_size=n - 1, max_size=n - 1),
)))
def test_curve_core_matches_dense_oracle(args):
    xi, phases, inverted = args
    assume(not _pinned_kernel(xi))
    _assert_matches_dense(build_from_superdiagonal(_entries(xi, phases, inverted)))


@given(st.lists(phase, min_size=4, max_size=4), st.lists(st.booleans(), min_size=4, max_size=4))
def test_drop_case_matches_dense_oracle(phases, inverted):
    m = build_from_superdiagonal(_entries((0.5, 0.0, 0.5, 0.0), phases, inverted))
    _assert_matches_dense(m)
    assert envelope_points(m, 64).degenerate.any()


@pytest.mark.parametrize("n", range(2, 8))
def test_zero_xi_matches_dense_oracle(n, rng):
    _assert_matches_dense(matrix_from_xi([0.0] * (n - 1)))
    if n % 2 == 0:  # for odd n see _pinned_kernel
        for modulus in (1.0, 1 + 2**-52):
            # 1 + 2^-52 gives xi = 5e-32, more than rho = 4e-33 at theta = pi/2
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n - 1))
            _assert_matches_dense(build_from_superdiagonal(modulus * phases))


def _mirrored_clusters(point, eigenvalue, degenerate):
    """Each row of the (m, n) sample arrays with the columns of every
    degenerate cluster (a run of degenerate samples of one eigenvalue)
    reversed: conjugation negates the compression's eigenvalues, which order
    a cluster's points."""
    out = point.copy()
    for i in np.flatnonzero(degenerate.any(axis=1)):
        d, ev = degenerate[i], eigenvalue[i]
        starts = np.concatenate(([True], ~d[1:] | ~d[:-1] | (ev[1:] != ev[:-1])))
        edges = np.append(np.flatnonzero(starts), d.size)
        for a, b in zip(edges[:-1], edges[1:]):
            out[i, a:b] = point[i, a:b][::-1]
    return out


@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.lists(xi_or_zero, min_size=n - 1, max_size=n - 1),
    st.lists(phase, min_size=n - 1, max_size=n - 1),
    st.lists(st.booleans(), min_size=n - 1, max_size=n - 1),
)), st.sampled_from([64, 2048, 2050, 2049, 100]))
def test_envelope_points_exact_symmetry(args, m):
    # z(-theta, j) = conj z(theta, j) and z(theta + pi, j) = z(theta, n + 1 - j),
    # bitwise; eigenvalues repeat unreversed, degenerate flags as the points.
    # The grid's 3 pi/2 mirrors its pi/2 under only one of the two, the one
    # that keeps the float sign of cos theta: where an xi vanishes, the
    # samples at rho = 0 follow that sign
    xi, phases, inverted = args
    s = envelope_points(build_from_superdiagonal(_entries(xi, phases, inverted)), m)
    n = len(xi) + 1
    P, L, D = (f.reshape(m, n) for f in (s.point, s.eigenvalue, s.degenerate))
    side = np.signbit(np.cos(s.theta[::n]))
    rows = np.arange(m)
    neg = (m - rows) % m
    keep = side[neg] == side
    assert np.array_equal(P[neg][keep], np.conj(_mirrored_clusters(P, L, D))[keep])
    assert np.array_equal(L[neg], L) and np.array_equal(D[neg], D)
    if m % 2:
        assert keep.all()
        return
    half = (rows + m // 2) % m
    flips = side[half] != side
    assert (keep | flips).all() and (keep & flips).sum() >= m - 2
    assert np.array_equal(P[half][flips], P[:, ::-1][flips])
    assert np.array_equal(L[half], L) and np.array_equal(D[half], D[:, ::-1])


@pytest.mark.parametrize("grid", [64, 256, 2048])
def test_near_degenerate_fig5_matches_dense_oracle(grid):
    # FIG5's caption xi: at theta = pi/2 two eigenvalues are 1e-7 apart with
    # xi_4 = 0, so the samples change by ~5e-10 between the float grid's
    # 3 pi/2 and the exact mirror image of its pi/2 (theta + pi: cos changes
    # sign between the two), which is what the fold copies there.  Every
    # other row matches the oracle to 1e-12
    m = matrix_from_xi(FIG5)
    thetas = np.linspace(0, 2 * np.pi, grid, endpoint=False)
    got = envelope_points(m, grid)
    want = oracle_envelope_points(m, thetas)
    assert got.degenerate.tolist() == [s[4] for s in want]
    assert _close(got.eigenvalue, [s[3] for s in want])
    point, want_point = got.point.reshape(grid, 6), np.array([s[2] for s in want]).reshape(grid, 6)
    mirror = 3 * grid // 4
    assert _close(np.delete(point, mirror, axis=0), np.delete(want_point, mirror, axis=0))
    assert _close(point[mirror], want_point[mirror], 1e-9)
    assert np.array_equal(point[mirror], point[grid // 4, ::-1])
    assert np.all(np.abs((np.exp(1j * got.theta) * got.point).real - got.eigenvalue) < 1e-12)


@pytest.mark.parametrize("grid", [100, 164])
@pytest.mark.parametrize("n", range(2, 8))
def test_conjugated_clusters_match_dense_oracle(n, grid, rng):
    # at these grid sizes cos has one sign at the grid's pi/2 and 3 pi/2, so
    # 3 pi/2 is the conjugated image of pi/2, whose degenerate clusters it
    # must list in reverse (at 64 or 2048 it is the theta + pi image)
    thetas = np.linspace(0, 2 * np.pi, grid, endpoint=False)
    assert np.signbit(np.cos(thetas[grid // 4])) == np.signbit(np.cos(thetas[3 * grid // 4]))
    _assert_matches_dense(matrix_from_xi([0.0] * (n - 1)), grid)
    if n % 2 == 0:
        for xi in ([0.5, 0.0] * n)[: n - 1], [1.0] + [0.0] * (n - 2):
            _assert_matches_dense(build_from_superdiagonal(
                _entries(xi, rng.uniform(0, 2 * np.pi, n - 1), rng.integers(0, 2, n - 1))), grid)


def test_envelope_tangency_invariant(rng):
    for n in (4, 5, 6):
        xi = rng.uniform(0.05, 2.0, n - 1)
        m = matrix_from_xi(xi)
        for s in envelope_points(m, 64):
            assert abs((np.exp(1j * s.theta) * s.point).real - s.eigenvalue) < 1e-9


def test_envelope_middle_branch_origin(rng):
    m = matrix_from_xi(rng.uniform(0.05, 2.0, 4))
    for s in envelope_points(m, 64):
        if s.branch == 3:
            assert s.point == 0


def test_envelope_all_zero_collapses_to_spectrum():
    m = matrix_from_xi([0.0, 0.0, 0.0])
    spec = np.array(exact_spectrum(4))
    for s in envelope_points(m, 32):
        assert np.min(np.abs(spec - s.point)) < 1e-9


def test_envelope_symmetry_both_axes(rng):
    for n in (4, 5, 6):
        xi = rng.uniform(0.05, 2.0, n - 1)
        pts = np.array([s.point for s in envelope_points(matrix_from_xi(xi), 64)])
        for transformed in (np.conj(pts), -pts):
            d = np.abs(pts[:, None] - transformed[None, :])
            assert max(d.min(axis=0).max(), d.min(axis=1).max()) < 1e-8


def test_envelope_outer_branch_fits_displaced_ellipses():
    m = matrix_from_xi([1.0, 0.0, 1.0])
    samples = [s for s in envelope_points(m, 512) if s.branch == 1]
    # predicted: congruent ellipses, centers +-1/2, foci {phi, -1/phi}, c = 1
    a = 1.5  # sqrt(c^2 + X^2) = sqrt(1 + 5/4)
    for s in samples:
        r1 = ((s.point.real - 0.5) / a) ** 2 + s.point.imag**2 - 1
        r2 = ((s.point.real + 0.5) / a) ** 2 + s.point.imag**2 - 1
        assert min(abs(r1), abs(r2)) < 1e-8


def test_envelope_degenerate_samples_flagged():
    samples = envelope_points(matrix_from_xi([0.5, 0.0, 0.5, 0.0]), 64)
    degen = [s for s in samples if s.degenerate]
    assert degen, "multiple tangents at theta = pi/2 must flag samples"
    assert all(abs(s.theta % math.pi - math.pi / 2) < 1e-12 for s in degen)


def test_multiple_tangents_drop_case():
    assert sorted(detect_multiple_tangents((0.5, 0.0, 0.5, 0.0))) == pytest.approx(
        [-math.sqrt(0.5), math.sqrt(0.5)]
    )


def test_multiple_tangents_absent_when_all_xi_positive():
    assert detect_multiple_tangents((1.0, 1.0, 1.0, 1.0)) == []


def test_multiple_tangents_fig4_case():
    xi = (1.44504, 1.0, 1.44504, 0.0, 3.24698)
    ords = sorted(detect_multiple_tangents(xi, tol=1e-5))
    assert ords == pytest.approx([-math.sqrt(3.24698), math.sqrt(3.24698)], abs=1e-9)


def test_multiple_tangents_n6_cases():
    # (i): some odd-index xi vanishes -> the real axis
    assert detect_multiple_tangents((0.0, 1.0, 1.0, 1.0, 1.0)) == [0.0]
    # (ii): xi2 = xi4 = 0 with equal pair
    ev = detect_multiple_tangents((1.5, 0.0, 1.5, 0.0, 0.7))
    assert sorted(ev) == pytest.approx([-math.sqrt(1.5), math.sqrt(1.5)])
    # (iii): xi2 = 0 with xi1 xi4 = (xi1-xi5)(xi1-xi3)
    x1, x3, x5 = 2.0, 1.0, 0.5
    x4 = (x1 - x5) * (x1 - x3) / x1
    ev = detect_multiple_tangents((x1, 0.0, x3, x4, x5))
    assert sorted(ev) == pytest.approx([-math.sqrt(x1), math.sqrt(x1)])


def assert_tangents_match_block_split(draws):
    """Closed-form criterion iff Im A splits into blocks sharing an eigenvalue."""
    for xi in draws:
        closed = sorted(detect_multiple_tangents(tuple(xi)))
        numeric = block_split_tangent_ordinates(tuple(xi))
        assert len(closed) == len(numeric), xi
        assert_allclose(closed, numeric, atol=1e-8, err_msg=str(xi))


def test_multiple_tangent_equivalence_n4(rng):
    draws = [rng.uniform(0, 2, 3) for _ in range(100)]
    for _ in range(150):
        xi = rng.uniform(0, 2, 3)
        xi[rng.integers(0, 3)] = 0.0
        draws.append(xi)
    for _ in range(150):
        x1 = rng.uniform(0.05, 2)
        draws.append(np.array([x1, 0.0, x1]))  # criterion holds
    assert_tangents_match_block_split(draws)


def test_multiple_tangent_equivalence_n5(rng):
    draws = []
    for _ in range(200):
        draws.append(rng.uniform(0, 2, 4))
    for _ in range(150):
        xi = rng.uniform(0, 2, 4)
        xi[1] = 0.0
        draws.append(xi)
    for _ in range(150):
        x3, x4 = rng.uniform(0.05, 2, 2)
        draws.append(np.array([x3 + x4, 0.0, x3, x4]))  # criterion holds
    assert_tangents_match_block_split(draws)


def test_multiple_tangent_equivalence_n6(rng):
    draws = []
    for _ in range(200):
        xi = rng.uniform(0, 2, 5)
        if rng.uniform() < 0.5:
            xi[rng.integers(0, 5)] = 0.0
        draws.append(xi)
    assert_tangents_match_block_split(draws)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_multiple_tangents_unsupported_dimension(n):
    with pytest.raises(UnsupportedDimensionError, match=f"cover n in 4..6, got {n}"):
        detect_multiple_tangents([1.0] * (n - 1))


def test_components_counts():
    cases = [
        ([1.0, 0.0, 1.0], 2, 0),          # two displaced ellipses
        ([0.5, 0.0, 0.5, 0.0], 2, 1),     # two drops + origin
        ([1 + math.sqrt(3) / 2, 0.0, 1.0, math.sqrt(3) / 2], 2, 1),
        ([0.801938, 1.0, 0.0, 1.0, 0.801938], 2, 2),    # degenerate central pair
        ([2.80194, 1.0, 2.80194, 0.0, 1.55496], 3, 0),  # three ellipses
        ([1.0] * 5, 3, 0),                               # three concentric
        ([0.0, 0.0, 0.0], 0, 4),                         # spectrum points
    ]
    for xi, loops, points in cases:
        comps = curve_components(envelope_points(matrix_from_xi(xi), 1024))
        got_loops = sum(1 for c in comps if c["kind"] == "loop")
        got_points = sum(1 for c in comps if c["kind"] == "point")
        assert (got_loops, got_points) == (loops, points), (xi, got_loops, got_points)


def test_samples_json_schema():
    m = matrix_from_xi([1.0, 0.0, 1.0])
    samples = envelope_points(m, 16)
    out = samples_to_json(samples)
    assert len(out) == 16 * 4
    assert out.dtype.names == ("theta", "branch", "re", "im")
    assert out.dtype["branch"].kind == "i"
    for got, want in ((out["theta"], samples.theta), (out["branch"], samples.branch),
                      (out["re"], samples.point.real), (out["im"], samples.point.imag)):
        assert np.array_equal(got, want)


def test_envelope_points_refuses_xi_above_max_xi():
    # S's off-diagonals take sqrt(xi (xi + 1)), which overflows above about
    # 1.34e154 and made every sample NaN; T's sqrt(xi + rho) does not, so the
    # eigenvalues and the ranges clipped from them stay finite
    big = (1e160, 1.0, 1.0)
    with pytest.raises(InvalidInputError, match="the largest xi envelope_points takes"):
        envelope_points(big, 64)
    assert np.isfinite(eigencurves(big, 64)[1]).all()
    assert np.isfinite(rank_k_numeric(big, 1, 64).points).all()
    assert np.isfinite(envelope_points((MAX_XI, 1.0, 1.0), 64).point).all()
