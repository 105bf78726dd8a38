import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIG1, FIG2, FIG3, FIG4, FIG5, PHI, SQRT3
from geometry_oracle import (
    HalfPlane,
    oracle_deque_vertices,
    oracle_halfplane_intersection,
    oracle_hausdorff,
    oracle_region_from_vertices,
)
from reciprange import geometry, ranges
from reciprange.cli import SEED_CORPUS
from reciprange.cli import main as cli_main
from reciprange.ellipses import ALL_CONCENTRIC, classify
from reciprange.errors import InvalidInputError
from reciprange.geometry import (
    EMPTY,
    POINT,
    POLYGON,
    SEGMENT,
    TWO_PI,
    ConvexRegion,
    hausdorff_distance,
    region_contains_region,
)
from reciprange.matrices import XiParameters, as_xi, build_from_superdiagonal, matrix_from_xi
from reciprange.kippenhahn import eigencurves, envelope_points
from reciprange.ranges import pencil_values, rank_k_analytic, rank_k_numeric, region_distance
from test_ellipses import FAMILIES


def test_numeric_k1_degenerate_segment():
    for n in (2, 3, 4, 5, 6):
        r = rank_k_numeric(matrix_from_xi([0.0] * (n - 1)), 1, 512)
        assert r.kind == SEGMENT
        expect = 2 * math.cos(math.pi / (n + 1))
        assert sorted(p.real for p in r.points) == pytest.approx([-expect, expect], abs=1e-9)


def test_numeric_ext_case_segment():
    r = rank_k_numeric(matrix_from_xi([1.0, PHI, 0.0]), 2, 512)
    assert r.kind == SEGMENT
    assert sorted(p.real for p in r.points) == pytest.approx([-1 / PHI, 1 / PHI], abs=1e-9)


def test_numeric_n5_k3_origin():
    for xi in (FIG1, FIG2, (0.9, 1.2, 0.3, 1.8)):
        r = rank_k_numeric(matrix_from_xi(list(xi)), 3, 256)
        assert r.kind == POINT and abs(r.points[0]) < 1e-9


def test_numeric_emptiness_rule(rng):
    for n, ks in ((4, (3, 4)), (5, (4, 5)), (6, (4, 5, 6))):
        for _ in range(10):
            m = matrix_from_xi(rng.uniform(0.05, 2.5, n - 1))
            for k in ks:
                assert rank_k_numeric(m, k, 128).kind == EMPTY


def test_numeric_chain_inclusion(rng):
    for n in (4, 5, 6):
        for _ in range(5):
            m = matrix_from_xi(rng.uniform(0.05, 2.0, n - 1))
            regions = [rank_k_numeric(m, k, 256) for k in range(1, (n + 1) // 2 + 1)]
            for outer, inner in zip(regions, regions[1:]):
                assert region_contains_region(outer, inner, tol=1e-8)


def _polygon(z, phi):
    """The POLYGON of CCW loop z whose edge j has outward normal angle phi[j]
    (mod 2 pi), started again at the edge of least angle."""
    phi = np.mod(phi, TWO_PI)
    first = int(np.argmin(phi))
    return ConvexRegion(POLYGON, tuple(np.roll(z, -first).tolist()), np.roll(phi, -first))


def _mirrored(r, conjugate):
    """The image of region r under z -> conj z or z -> -z.  A POLYGON's
    normals follow: -z turns each by pi; conj negates each and reverses the
    loop, so edge j of the image is edge m - 2 - j of r."""
    z = np.array(r.points)
    if r.kind != POLYGON:
        return ConvexRegion(r.kind, tuple((np.conj(z) if conjugate else -z).tolist()))
    phi = np.array(r.normals)
    if conjugate:
        return _polygon(np.conj(z[::-1]), -np.roll(phi, 1)[::-1])
    return _polygon(-z, phi + math.pi)


def test_numeric_symmetry(rng):
    for n in (4, 5, 6):
        m = matrix_from_xi(rng.uniform(0.05, 2.0, n - 1))
        r = rank_k_numeric(m, 2, 256)
        if r.kind != POLYGON:
            continue
        assert region_distance(r, _mirrored(r, conjugate=True)) < 1e-8
        assert region_distance(r, _mirrored(r, conjugate=False)) < 1e-8


def test_numeric_validates_inputs():
    m = matrix_from_xi([1.0, 0.0, 1.0])
    with pytest.raises(InvalidInputError):
        rank_k_numeric(m, 0, 64)
    with pytest.raises(InvalidInputError):
        rank_k_numeric(m, 5, 64)
    with pytest.raises(InvalidInputError):
        rank_k_numeric(m, 1, 4)


def test_analytic_con4_disks():
    rep = classify([1.0, 1.0, 1.0])
    r1 = rank_k_analytic(rep, 1)
    r2 = rank_k_analytic(rep, 2)
    assert region_contains_region(r1, r2, tol=1e-9)
    assert rank_k_analytic(rep, 3).kind == EMPTY
    assert rank_k_analytic(rep, 4).kind == EMPTY


def test_analytic_ext_segment():
    rep = classify([1.0, PHI, 0.0])
    r2 = rank_k_analytic(rep, 2)
    assert r2.kind == SEGMENT
    assert sorted(p.real for p in r2.points) == pytest.approx([-1 / PHI, 1 / PHI])


def test_analytic_n5():
    rep = classify(list(FIG2))
    assert rank_k_analytic(rep, 3).kind == POINT
    assert rank_k_analytic(rep, 4).kind == EMPTY
    lens = rank_k_analytic(rep, 2)
    hull = rank_k_analytic(rep, 1)
    assert region_contains_region(hull, lens, tol=1e-9)


def test_analytic_rejects_negative_verdicts():
    rep = classify(list(FIG1))
    with pytest.raises(InvalidInputError):
        rank_k_analytic(rep, 1)


def test_analytic_vs_numeric_paper_sets():
    cases = [
        ([1.0, 1.0, 1.0], 1e-9, (1, 2)),
        ([1.0, 0.0, 1.0], 1e-9, (1, 2)),
        (list(FIG2), 1e-9, (1, 2, 3)),
        (list(FIG3), 1e-6, (1, 2, 3)),
        (list(FIG4), 1e-6, (1, 2, 3)),
        (list(FIG5), 1e-6, (1, 2, 3)),
        ([1.0] * 5, 1e-9, (1, 2, 3)),
    ]
    for xi, tol, ks in cases:
        rep = classify(xi, tol=tol)
        m = matrix_from_xi(xi)
        for k in ks:
            d = region_distance(rank_k_analytic(rep, k), rank_k_numeric(m, k, 2048))
            assert d < 5e-3, (xi, k, d)


def test_de_family_lambda_tables():
    # de1 and k = 2cos(3pi/7): hull, lens, central; k = 2cos(pi/7): central first
    rep4 = classify(list(FIG4), tol=1e-6)
    m4 = matrix_from_xi(list(FIG4))
    l1 = rank_k_analytic(rep4, 1)
    l3 = rank_k_analytic(rep4, 3)
    assert region_contains_region(l1, l3, tol=1e-8)
    assert region_distance(l3, rank_k_numeric(m4, 3, 1024)) < 5e-3

    rep5 = classify(list(FIG5), tol=1e-6)
    l1 = rank_k_analytic(rep5, 1)  # outer central disk
    central = next(e for e in rep5.ellipses if e.center == 0)
    top = max(p.imag for p in l1.points)
    assert top == pytest.approx(central.minor_half_axis, rel=1e-3)

    rep3 = classify(list(FIG3), tol=1e-6)
    l3 = rank_k_analytic(rep3, 3)
    assert l3.kind == SEGMENT  # degenerate central ellipse


def test_fig1_lambda_structure():
    m = matrix_from_xi(list(FIG1))
    l1 = rank_k_numeric(m, 1, 1024)
    l2 = rank_k_numeric(m, 2, 1024)
    l3 = rank_k_numeric(m, 3, 1024)
    assert l1.kind == POLYGON and l2.kind == POLYGON
    assert region_contains_region(l1, l2, tol=1e-8)
    assert l3.kind == POINT and abs(l3.points[0]) < 1e-9


def test_region_distance_conventions():
    from reciprange.geometry import ConvexRegion

    e = ConvexRegion.empty()
    assert region_distance(e, e) == 0.0
    rep = classify([1.0, 1.0, 1.0])
    assert math.isinf(region_distance(e, rank_k_analytic(rep, 1)))


def _positive_reports():
    """The positive verdicts on the verify corpus, which holds the paper's
    sets, at the CLI's tolerance for caption-grade inputs."""
    reps = [classify(xi, tol=1e-6) for n in (4, 5, 6) for xi in SEED_CORPUS[n]]
    return [rep for rep in reps if rep.verdict in ("ALL_CONCENTRIC", "DISPLACED_PAIR")]


def test_analytic_matches_numeric_on_snapped_xi():
    # on the criterion-exact parameters and one shared theta grid, the support
    # functions of the ellipses are the eigenvalue curves, so the two ranges
    # agree to rounding whatever the grid
    reps = _positive_reports()
    assert len(reps) == 8
    for rep in reps:
        for k in range(1, (rep.n + 1) // 2 + 1):
            for grid in (256, 2048):
                d = region_distance(rank_k_analytic(rep, k, grid), rank_k_numeric(rep.snapped_xi, k, grid))
                assert d <= 1e-10, (rep.xi, k, grid, d)


def _unbinding_box(bounds):
    """A box half-width that no clip of these bounds on a grid of m >= 8
    thetas reaches: a point of the clip lies within pi/m of the normal of
    some line, so its modulus is at most max(bounds) / cos(pi/8) < 2 max(bounds)."""
    return 1 + 2 * float(np.max(np.abs(bounds)))


def _pencil_oracle(rep, k, grid):
    """Lambda_k by Li-Sze: the box clipped one half-plane at a time by the k-th
    largest pencil value."""
    thetas = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    bounds = pencil_values(rep, thetas)[:, k - 1]
    box = 1 + float(np.max(np.abs(bounds)))
    return oracle_halfplane_intersection([HalfPlane(float(t), float(b)) for t, b in zip(thetas, bounds)], box)


def test_analytic_matches_pencil_oracle():
    # the kernel's clip against the one-step-per-line clip of the same bounds
    for rep in _positive_reports():
        for k in range(1, (rep.n + 1) // 2 + 1):
            got, want = rank_k_analytic(rep, k, 256), _pencil_oracle(rep, k, 256)
            assert got.kind == want.kind, (rep.xi, k)
            assert oracle_hausdorff(got, want) <= 1e-10, (rep.xi, k)


def _case_table_range(rep, k, grid):
    """Lambda_k read off the paper's case table, through the same clip as
    ``rank_k_analytic``.  Concentric verdicts: the disk of the k-th nested
    ellipse.  Displaced pairs: the hull of E and -E, then their lens, with the
    n = 6 central disk first for table row ii and last for row vi.  Odd n:
    the origin at k = (n + 1)/2.  EMPTY past that.  A disk's bound is the
    support function h_E(theta) = p cos theta + sqrt(a^2 cos^2 theta + c^2 sin^2 theta),
    the hull's max(h_E, h_-E) and the lens's min(h_E, h_-E)."""
    n = rep.n
    if k > (n + 1) / 2:
        return ConvexRegion.empty()
    thetas = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    cos, sin = np.cos(thetas), np.sin(thetas)

    def support(e):
        return e.center * cos + np.sqrt((e.major_half_axis * cos) ** 2 + (e.minor_half_axis * sin) ** 2)

    def clip(bounds):
        return ranges._clip(thetas, bounds)

    if rep.verdict == ALL_CONCENTRIC:
        return clip(support(rep.ellipses[k - 1])) if k <= len(rep.ellipses) else ConvexRegion(POINT, (0j,))
    central = [e for e in rep.ellipses if e.center == 0]
    plus, minus = [e for e in rep.ellipses if e.center != 0]
    if central:
        slot = 1 if rep.table_row == "ii" else 3
        if k == slot:
            return clip(support(central[0]))
        if k > slot:
            k -= 1
    if k == 3:  # n = 5
        return ConvexRegion(POINT, (0j,))
    h = support(plus), support(minus)
    return clip(np.maximum(*h) if k == 1 else np.minimum(*h))


@given(st.sampled_from([(n, i) for n in FAMILIES for i in range(len(FAMILIES[n]))]),
       st.floats(0.2, 2.0), st.floats(0.2, 2.0), st.booleans())
def test_analytic_is_the_case_table(member, t, s, rev):
    # on every criterion family the k-th largest pencil value gives exactly
    # the disk, hull, lens or central slot of the case table, and the report's
    # table row is not read
    n, i = member
    xi = FAMILIES[n][i](t, s)
    rep = classify(xi[::-1] if rev else xi)
    assert rep.verdict in ("ALL_CONCENTRIC", "DISPLACED_PAIR"), rep
    blind = dataclasses.replace(rep, table_row=None)
    for k in range(1, n + 1):
        for grid in (256, 2048):
            want = _case_table_range(rep, k, grid)
            assert rank_k_analytic(rep, k, grid) == want, (xi, rev, k, grid)
            assert rank_k_analytic(blind, k, grid) == want, (xi, rev, k, grid)


_rep = classify([1.0, 1.0, 1.0])


@pytest.mark.parametrize("grid", [float("nan"), float("inf"), 8.9, 64.0, "64", np.full(16, np.nan),
                                  np.append(np.zeros(15), np.inf), np.zeros((2, 16)), np.array(64), [], ["a"],
                                  np.linspace(0.0, 2 * math.pi, 64, endpoint=False), [0.0, 1.0, 2.0, 3.0] * 4])
@pytest.mark.parametrize("call", [
    lambda g: eigencurves((1.0, 1.0, 1.0), g),
    lambda g: envelope_points((1.0, 1.0, 1.0), g),
    lambda g: rank_k_numeric((1.0, 1.0, 1.0), 1, g),
    lambda g: rank_k_analytic(_rep, 1, g),
    lambda g: rank_k_analytic(_rep, 3, g),
], ids=["eigencurves", "envelope_points", "rank_k_numeric", "rank_k_analytic", "rank_k_analytic_empty"])
def test_bad_theta_grids_raise_invalid_input(call, grid):
    with pytest.raises(InvalidInputError, match="theta grid"):
        call(grid)


def test_numpy_integer_grid_sizes_pass():
    for size in (np.int64(64), np.uint16(64)):
        assert rank_k_numeric((1.0, 1.0, 1.0), 1, size) == rank_k_numeric((1.0, 1.0, 1.0), 1, 64)
        assert rank_k_analytic(_rep, 1, size) == rank_k_analytic(_rep, 1, 64)


@pytest.mark.parametrize("xi", [(1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, PHI, 0.0), (0.0, 0.0, 0.0),
                                FIG1, FIG2, FIG3, FIG4, FIG5, (1.0,) * 5])
def test_numeric_matches_clipping_oracle(xi, monkeypatch):
    # the very half-planes _clip builds from the solve, clipped one by one
    # from a box that does not bind, against rank_k_numeric, which skips the
    # clip where the solve decides
    seen = []
    kernel = ranges.halfplane_intersection

    def spy(thetas, bounds):
        seen.append(([HalfPlane(float(t), float(b)) for t, b in zip(thetas, bounds)], _unbinding_box(bounds)))
        return kernel(thetas, bounds)

    monkeypatch.setattr(ranges, "halfplane_intersection", spy)
    m = matrix_from_xi(list(xi))
    for k in range(1, m.n + 1):
        got = rank_k_numeric(m, k, 512)
        seen.clear()
        _fresh(m, k, 512)
        want = oracle_halfplane_intersection(*seen.pop())
        assert got.kind == want.kind, (xi, k)
        assert oracle_hausdorff(got, want) <= 1e-9, (xi, k)


def test_coarse_grid_range_is_its_half_planes_alone():
    # Lambda_1 of n = 12, xi = 1e4 at grid 9: the 9 half-planes cut a 9-gon
    # whose corners reach 206.66 from 0.  The box of half-width
    # 2 + max|a| + max 1/|a| = 202.01 that the clip once added cut them off,
    # into a 12-gon; the range is the intersection of the half-planes alone
    xi = (1e4,) * 11
    thetas, lam = eigencurves(xi, 9)
    bounds = lam[:, 0] + ranges._slack(lam[:, 0])
    got = rank_k_numeric(xi, 1, 9)
    want = oracle_halfplane_intersection([HalfPlane(float(t), float(b)) for t, b in zip(thetas, bounds)],
                                         _unbinding_box(bounds))
    assert got.kind == want.kind == POLYGON and len(got.points) == len(want.points) == 9
    assert max(map(abs, got.points)) > 206
    assert oracle_hausdorff(got, want) <= 1e-9 * 206


_paper_or_drawn = st.sampled_from([FIG1, FIG2, FIG3, FIG4, FIG5, (1.0, 0.0, 1.0), (1.0,) * 5]) | st.lists(
    st.floats(0.0, 2.5), min_size=2, max_size=6).map(tuple)


@given(_paper_or_drawn, st.sampled_from([127, 128, 513, 2048]), st.data())
def test_numeric_skips_change_no_decision(xi, grid, data):
    # the deque of one clip of the solve's bounds, on the very lines it used,
    # against its one-step-per-line oracle: vertices and lines kept
    k = data.draw(st.integers(1, len(xi) + 1))
    calls = []
    kernel = geometry._intersect_sorted

    def spy(*args):
        got = kernel(*args)
        calls.append((got, oracle_deque_vertices(*args)))
        return got

    with mock.patch.object(geometry, "_intersect_sorted", spy):
        _fresh(xi, k, grid)
    assert len(calls) == 1
    got, want = calls[0]
    assert (got is None) == (want is None)
    assert got is None or all(map(np.array_equal, got, want))


def _kernel_lines(xi, k, grid):
    """The sorted (phi, c) arrays that _clip, on the bounds of the eigen
    solve, hands to _intersect_sorted (rank_k_numeric's point fans skip it)."""
    seen = []
    kernel = geometry._intersect_sorted

    def spy(phi, c):
        seen.append((phi.copy(), c.copy()))
        return kernel(phi, c)

    with mock.patch.object(geometry, "_intersect_sorted", spy):
        _fresh(xi, k, grid)
    return seen[0]


# the fans: Lambda_3 is the point {0} for n = 5 and a segment for FIG3, so
# nearly every line of the eigensolver's bounds is redundant, and _prune
# drops most of them before the deque runs
FANS = [FIG2, (0.5, 0.0, 0.5, 0.0), (1.0, 1.0, 1.0, 1.0), FIG3]


@pytest.mark.parametrize("grid", [2047, 2048, 2049, 4096])
@pytest.mark.parametrize("xi", FANS)
def test_pruned_fans_match_deque_oracle(xi, grid):
    phi, c = _kernel_lines(xi, 3, grid)
    pruned = []
    prune = geometry._prune

    def spy(*args):
        pruned.append(prune(*args))
        return pruned[-1]

    with mock.patch.object(geometry, "_prune", spy):
        got = geometry._intersect_sorted(phi, c)
    want = oracle_deque_vertices(phi, c)
    assert pruned and pruned[0][0].size < phi.size / 4
    assert got is not None and want is not None and all(map(np.array_equal, got, want))


@pytest.mark.parametrize("xi, bound", [(FIG2, 560), (FIG3, 520)])
def test_fan_scalar_steps_bounded(xi, bound):
    # one scalar step per line made ~5,600 (n = 5) and ~5,200 (FIG3) scalar
    # corners at grid 2048; the pruning rounds leave a tenth of that at most.
    # rank_k_numeric does not clip the n = 5 point, so the solve's bounds are
    # clipped directly
    calls = 0
    corner = geometry._corner

    def count(*args):
        nonlocal calls
        calls += isinstance(args[0], float)
        return corner(*args)

    with mock.patch.object(geometry, "_corner", count):
        region = _fresh(xi, 3, 2048)
    assert region.kind == rank_k_numeric(xi, 3, 2048).kind == (POINT if len(xi) == 4 else SEGMENT)
    assert 0 < calls <= bound


@pytest.mark.parametrize("xi, k, bound", [((1.0, 0.0, 1.0), 2, 607 // 3), (FIG5, 3, 591 // 3)])
def test_lens_scalar_steps_bounded(xi, k, bound):
    # lambda_k of these lenses kinks at theta = pi/2 and 3pi/2, where each of
    # ~75 lines pops the line before it and tail lines: one scalar step per
    # test made 607 and 591 scalar corners at grid 2048.  The junction walk
    # reads the tail's corners from the array of neighbouring corners and
    # tests the front once as an array, so a third of that is left at most
    calls = 0
    corner = geometry._corner

    def count(*args):
        nonlocal calls
        calls += isinstance(args[0], float)
        return corner(*args)

    with mock.patch.object(geometry, "_corner", count):
        region = rank_k_numeric(xi, k, 2048)
    assert region.kind == POLYGON
    assert 0 < calls <= bound


@pytest.mark.parametrize("grid", [512, 2048, 2050])
@pytest.mark.parametrize("xi", [(1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, PHI, 0.0), (0.0, 0.0, 0.0),
                                FIG1, FIG2, FIG3, FIG4, FIG5, (1.0,) * 5])
def test_numeric_d2_symmetric(xi, grid):
    # an even grid holds theta, -theta, pi - theta and pi + theta, whose bounds
    # come from one eigen solve, so Lambda_k is its own negative and conjugate
    for k in range(1, len(xi) + 2):
        r = rank_k_numeric(xi, k, grid)
        for conjugate in (False, True):
            assert hausdorff_distance(r, _mirrored(r, conjugate)) <= 1e-12, (xi, k)


def _range_and_vertices(xi, k, grid, numeric=rank_k_numeric):
    """numeric(xi, k, grid) and the vertices its deque returned."""
    seen = []
    kernel = geometry._intersect_sorted

    def spy(*args):
        seen.append(kernel(*args))
        return seen[-1]

    with mock.patch.object(geometry, "_intersect_sorted", spy):
        region = numeric(xi, k, grid)
    return region, seen[0][0]


_C7 = 2 * math.cos(2 * math.pi / 7)


# Lambda_k that are segments: (1, phi, 0) at k = 2 and a de1 member at k = 3.
# A grid without theta = pi/2 leaves a strip about 1e-3 wide, whose edges
# lie on the deque's lines; their directions from vertex differences at the
# strip's tips, where vertices come within 1e-16 of each other, made it a
# SEGMENT.  Grid 2048 holds pi/2 and gives the segment itself
@pytest.mark.parametrize("grid", [2047, 2048, 2049, 2050, 4097])
@pytest.mark.parametrize("xi, k", [((1.0, PHI, 0.0), 2), ((0.4483, _C7 * 0.4483, 0.0, _C7 * 0.4483, 0.4483), 3)])
def test_thin_ranges_match_oracle(xi, k, grid):
    got, vertices = _range_and_vertices(xi, k, grid)
    assert got.kind == oracle_region_from_vertices(vertices).kind == (SEGMENT if grid == 2048 else POLYGON)
    want = rank_k_analytic(classify(list(xi)), k, grid)
    # at the de1 member's grid 4097 a tip vertex of the numeric loop lies
    # 1.08e-12 outside one of its own lines (the loop is convex only up to
    # rounding there); the oracle measures that vertex, the support functions
    # do not, hence 2e-12 against the oracle
    d = region_distance(got, want)
    assert d <= 1e-12, (xi, k, grid, d)
    assert abs(d - oracle_hausdorff(got, want)) <= 2e-12, (xi, k, grid)
    if got.kind == POLYGON:
        # the strip turned by 0.3 and moved by 0.01: its normals turn with it
        moved = _polygon(np.exp(0.3j) * np.array(got.points) + 0.01, np.array(got.normals) + 0.3)
        assert abs(region_distance(got, moved) - oracle_hausdorff(got, moved)) <= 2e-12, (xi, k, grid)


@given(st.sampled_from([4, 6]), st.floats(0.2, 2.0), st.booleans(), st.sampled_from([2047, 2048, 2049, 2050, 4097]))
def test_thin_family_ranges_match_oracle_kind(n, t, rev, grid):
    # the middle Lambda_k of the con4 members (t, phi t, 0) and of de1 is a
    # segment; its kind must be the oracle's on the deque's vertices and the
    # analytic range's on the same grid
    xi = FAMILIES[n][0 if n == 4 else 1](t, 0.0)
    xi = xi[::-1] if rev else xi
    k = n // 2
    got, vertices = _range_and_vertices(xi, k, grid)
    assert got.kind == oracle_region_from_vertices(vertices).kind, (xi, grid)
    assert got.kind == rank_k_analytic(classify(list(xi)), k, grid).kind, (xi, grid)


# region_from_vertices searches for the diameter (_calipers) only where the
# loop may be a POINT or a SEGMENT: a loop that holds a disk about 0 of
# radius above FAT_INRADIUS is a POLYGON at once.  Lambda_1..3 of
# (1, 1, 1, 1, 1) and the strips off theta = pi/2, about 1e-3 wide, of
# (1, phi, 0) at k = 2 and of FIG3 at k = 3 hold such a disk; the fans of
# the CI step, a point and (at grid 2048) a segment, search, and each kind is
# the oracle's.  rank_k_numeric does not clip the point fan, so the solve's
# bounds are clipped directly
@pytest.mark.parametrize("xi, k, grid, kind", [
    *[((1.0,) * 5, k, 2048, POLYGON) for k in (1, 2, 3)],
    *[((1.0, PHI, 0.0), 2, grid, POLYGON) for grid in (2047, 2049, 2050, 4097)],
    *[((1.866, 0.0, 1.0, 0.866), 3, grid, POINT) for grid in (2048, 2049)],
    ((0.801938, 1.0, 0.0, 1.0, 0.801938), 3, 2048, SEGMENT),
    ((0.801938, 1.0, 0.0, 1.0, 0.801938), 3, 2049, POLYGON),
])
def test_diameter_search_only_for_thin_loops(xi, k, grid, kind):
    calls = []
    calipers = geometry._calipers

    def count(*args):
        calls.append(args)
        return calipers(*args)

    with mock.patch.object(geometry, "_calipers", count):
        got, vertices = _range_and_vertices(xi, k, grid, _fresh)
    assert got.kind == oracle_region_from_vertices(vertices).kind == rank_k_numeric(xi, k, grid).kind == kind
    assert (len(calls) > 0) == (kind != POLYGON)


def test_numeric_fine_grid_memory():
    tracemalloc.start()
    try:
        region = rank_k_numeric(matrix_from_xi(list(FIG4)), 2, 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert region.kind == POLYGON
    assert peak < 64 * 2**20, peak


def test_region_distance_memory():
    # the dense vertex-to-edge scan made 1026 x 2048 complex arrays (128 MB)
    a = rank_k_analytic(classify(list(FIG4), tol=1e-6), 1)
    b = rank_k_numeric(matrix_from_xi(list(FIG4)), 1, 2048)
    tracemalloc.start()
    try:
        d = region_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < d < 5e-3
    assert peak < 8 * 2**20, peak


def test_analytic_builds_only_requested_region(monkeypatch):
    # FIG4 (de3, k = 2cos(3pi/7)) orders hull, lens, central disk; FIG2 (n = 5)
    # ends in the origin and then nothing
    results = []
    kernel = ranges.halfplane_intersection

    def spy(*args):
        results.append(kernel(*args))
        return results[-1]

    monkeypatch.setattr(ranges, "halfplane_intersection", spy)
    rep = classify(list(FIG4), tol=1e-6)
    for k in (3, 2, 1):
        got = rank_k_analytic(rep, k)
        assert len(results) == 1 and got is results.pop(), k
    rep = classify(list(FIG2))
    for k in (3, 4):
        rank_k_analytic(rep, k)
    assert results == []


def _fresh(matrix, k, grid):
    """Lambda_k from its own eigen solve, as rank_k_numeric computes it."""
    xi = as_xi(matrix)
    thetas, lam = eigencurves(xi, grid)
    return ranges._clip(thetas, lam[:, k - 1])


def _assert_same_region(got, want):
    """got, from rank_k_numeric, is want, from _fresh, but for the POINT {0}
    that rank_k_numeric answers from k, where the clip's point lies within
    rounding of 0."""
    if got.kind == want.kind == POINT and got.points == (0j,):
        assert abs(want.points[0]) <= 1e-8
        return
    assert got == want
    assert np.array_equal(got.normals, want.normals)


def test_held_solve_never_changes_a_result(rng):
    phases = np.exp(2j * np.pi * rng.random(4))
    random_phase = build_from_superdiagonal(rng.uniform(0.3, 3.0, 4) * phases)
    # the same xi as a list, an XiParameters and a matrix in a row, and FIG4
    # (n = 6) between them, so calls alternate between hits and misses
    mats = [random_phase, list(FIG2), XiParameters(FIG2), matrix_from_xi(list(FIG2)), FIG4, (1.0, PHI, 0.0)]
    for grids in ([2048], [2049], [2048, 512, 2049]):
        for k in range(1, 7):
            for m in mats:
                for grid in grids:
                    if k <= as_xi(m).n:
                        _assert_same_region(rank_k_numeric(m, k, grid), _fresh(m, k, grid))


def test_one_solve_for_every_k(monkeypatch):
    calls = []

    def spy(xi, grid):
        out = eigencurves(xi, grid)
        calls.append(out[1])
        return out

    rank_k_numeric((2.0, 2.0), 1, 64)  # hold some other solve
    monkeypatch.setattr(ranges, "eigencurves", spy)
    for grid in (2048, 2049):
        for xi in (FIG3, (0.9, 1.3, 0.4, 2.0, 0.7, 0.2)):
            calls.clear()
            for k in range(1, len(xi) + 2):
                rank_k_numeric(xi, k, grid)
            assert len(calls) == 1, (xi, grid)
            assert not calls[0].flags.writeable


def test_held_solve_is_keyed_by_grid_size(monkeypatch):
    # numpy integer sizes share the solve of the same int
    calls = []

    def spy(xi, grid):
        calls.append(grid)
        return eigencurves(xi, grid)

    rank_k_numeric((2.0, 2.0), 1, 64)  # hold some other solve
    monkeypatch.setattr(ranges, "eigencurves", spy)
    for k, grid in zip((1, 2, 3), (2048, np.int64(2048), np.uint16(2048))):
        _assert_same_region(rank_k_numeric(FIG3, k, grid), _fresh(FIG3, k, grid))
    assert calls == [2048]


@pytest.mark.parametrize("bad", [
    lambda: rank_k_numeric(FIG5, 0, 2048),
    lambda: rank_k_numeric(FIG5, 1, 8.9),
    lambda: rank_k_numeric(FIG5, 1, 4),
    lambda: rank_k_numeric((1.0, math.nan, 1.0), 1, 2048),
], ids=["k=0", "grid=8.9", "grid=4", "nan-xi"])
def test_failed_call_keeps_the_held_solve(bad, monkeypatch):
    calls = []

    def spy(xi, grid):
        calls.append(grid)
        return eigencurves(xi, grid)

    monkeypatch.setattr(ranges, "eigencurves", spy)
    _assert_same_region(rank_k_numeric(FIG5, 1, 2048), _fresh(FIG5, 1, 2048))
    with pytest.raises(InvalidInputError):
        bad()
    calls.clear()
    _assert_same_region(rank_k_numeric(FIG5, 2, 2048), _fresh(FIG5, 2, 2048))
    assert calls == []


def test_guards_precede_the_origin_fast_path():
    # Lambda_3 of n = 5 is the POINT {0} from k, but not on a grid too small
    # to clip nor for a k out of range
    assert rank_k_numeric(FIG2, 3, 8) == ConvexRegion(POINT, (0j,))
    with pytest.raises(InvalidInputError, match="at least 8 points"):
        rank_k_numeric(FIG2, 3, 4)
    with pytest.raises(InvalidInputError, match="at least 8 points"):
        rank_k_numeric(FIG2, 4, 4)
    with pytest.raises(InvalidInputError, match="k must be"):
        rank_k_numeric(FIG2, 6, 4)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_analytic_checks_the_grid_for_every_k(k):
    # n = 4: Lambda_3 and Lambda_4 are EMPTY from the verdict alone, but a
    # grid too small to clip is refused for them as for the clipped k = 1, 2
    with pytest.raises(InvalidInputError, match="at least 8 points"):
        rank_k_analytic(classify([1, 1, 1]), k, 4)


_xi_with_zeros = st.integers(3, 7).flatmap(
    lambda n: st.lists(st.just(0.0) | st.floats(0.0, 2.5), min_size=n - 1, max_size=n - 1)).map(tuple)


@given(_xi_with_zeros, st.sampled_from([8, 127, 128, 2048, 2049]))
def test_origin_fast_paths_change_no_decision(xi, grid):
    # at every k, 2k > n + 1 too, rank_k_numeric's answer from k is the
    # clip's, and so is every clipped range; every loop the clips make is
    # classified the same with its inradius as without
    loops = []
    kernel = geometry._intersect_sorted

    def spy(phi, c):
        loops.append((kernel(phi, c), float(np.min(c))))
        return loops[-1][0]

    for k in range(1, len(xi) + 2):
        got = rank_k_numeric(xi, k, grid)
        with mock.patch.object(geometry, "_intersect_sorted", spy):
            want = _fresh(xi, k, grid)
        _assert_same_region(got, want)
    for loop, inradius in loops:
        if loop is not None:
            fast, full = geometry.region_from_vertices(*loop, inradius), geometry.region_from_vertices(*loop)
            assert fast == full and np.array_equal(fast.normals, full.normals)


# the middle Lambda_k is {0} and every later one EMPTY at every scale: from
# the solve, the middle column's rounding, about eps sqrt(max xi), passed the
# clip's slack near xi = 1e7 and gave EMPTY, and at k = 4 of the second xi the
# widened strips kept a point
@pytest.mark.parametrize("xi, k, kind", [((1e8,) * 4, 3, POINT), ((1.0, 1e14, 1.0, 1e14, 1.0), 4, EMPTY)])
def test_middle_and_later_ranges_at_large_xi(xi, k, kind, tmp_path):
    want = ConvexRegion(POINT, (0j,)) if kind == POINT else ConvexRegion.empty()
    assert rank_k_numeric(xi, k, 2048) == want
    out = tmp_path / "range.json"
    assert cli_main(["range", "--xi", ",".join(map(repr, xi)), "--k", str(k), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == want.to_json_dict()


@pytest.mark.parametrize("n", [3, 5, 7])
def test_middle_and_later_ranges_at_every_scale(n, rng):
    for scale in 10.0 ** np.arange(13):
        xi = tuple(scale * rng.uniform(0.5, 2.0, n - 1))
        for grid in (8, 2048, 2049):
            assert rank_k_numeric(xi, (n + 1) // 2, grid) == ConvexRegion(POINT, (0j,))
            for k in range((n + 3) // 2, n + 1):
                assert rank_k_numeric(xi, k, grid).kind == EMPTY
