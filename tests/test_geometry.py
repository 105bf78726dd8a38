import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import FIG3
from geometry_oracle import (
    HalfPlane,
    ccw_loop,
    ellipse_region,
    is_ccw_loop,
    oracle_contains,
    oracle_deque_vertices,
    oracle_diameter,
    oracle_directed,
    oracle_distances,
    oracle_halfplane_intersection,
    oracle_hausdorff,
    oracle_intersect_polygons,
    oracle_region_from_vertices,
    oracle_width,
)
from reciprange import geometry
from reciprange.cli import SEED_CORPUS
from reciprange.ellipses import classify
from reciprange.errors import InvalidInputError
from reciprange.geometry import (
    _BOX_PHI,
    EMPTY,
    FAT_INRADIUS,
    POINT,
    POLYGON,
    SEGMENT,
    TWO_PI,
    ConvexRegion,
    _by_angle,
    _calipers,
    _edge_halfplanes,
    _intersect_sorted,
    convex_hull,
    halfplane_intersection,
    hausdorff_distance,
    intersect_regions,
    polygon_area,
    region_contains_region,
    region_from_vertices,
)
from reciprange.matrices import matrix_from_xi
from reciprange.ranges import rank_k_analytic, rank_k_numeric


def _intersect(hps, box_halfwidth):
    """halfplane_intersection of a list of HalfPlanes, passed as two arrays."""
    return halfplane_intersection([hp.theta for hp in hps], [hp.bound for hp in hps], box_halfwidth)


def disk_region(radius=1.0, center=0j, m=256):
    hps = [HalfPlane(t, radius) for t in np.linspace(0, 2 * math.pi, m, endpoint=False)]
    r = _intersect(hps, 10 * radius + 10)
    return ConvexRegion(POLYGON, tuple(p + center for p in r.points), r.normals)


def test_square_intersection():
    hps = [HalfPlane(j * math.pi / 2, 1.0) for j in range(4)]
    r = _intersect(hps, 10)
    assert r.kind == POLYGON
    assert abs(polygon_area(list(r.points)) - 4.0) < 1e-12


def test_empty_intersection():
    hps = [HalfPlane(0.0, -1.0), HalfPlane(math.pi, -1.0)]  # x <= -1 and x >= 1
    assert _intersect(hps, 10).kind == EMPTY


_SIXTEEN = np.linspace(0, 2 * math.pi, 16, endpoint=False)


@pytest.mark.parametrize("thetas, bounds, box", [
    (_SIXTEEN, np.where(np.arange(16) == 3, np.nan, 1.0), 1.0),  # gave POINT (1-0.199j)
    (_SIXTEEN, np.where(np.arange(16) == 3, np.inf, 1.0), 10.0),
    (np.where(np.arange(16) == 3, np.nan, _SIXTEEN), np.ones(16), 10.0),  # gave a POLYGON
    (_SIXTEEN, np.ones(15), 10.0),  # raised IndexError
    (_SIXTEEN[:, None], np.ones((16, 1)), 10.0),
    (_SIXTEEN, np.ones(16), 0.0),
    (_SIXTEEN, np.ones(16), -1.0),
    (_SIXTEEN, np.ones(16), math.inf),
    (_SIXTEEN, np.ones(16), math.nan),
])
def test_halfplane_intersection_rejects_invalid_input(thetas, bounds, box):
    with pytest.raises(InvalidInputError):
        halfplane_intersection(thetas, bounds, box)


def test_point_demotion():
    hps = [HalfPlane(t, 1e-12) for t in np.linspace(0, 2 * math.pi, 64, endpoint=False)]
    r = _intersect(hps, 10)
    assert r.kind == POINT and abs(r.points[0]) < 1e-9


def test_segment_demotion():
    hps = [HalfPlane(0, 1), HalfPlane(math.pi, 1),
           HalfPlane(math.pi / 2, 1e-12), HalfPlane(-math.pi / 2, 1e-12)]
    r = _intersect(hps, 10)
    assert r.kind == SEGMENT
    ends = sorted(p.real for p in r.points)
    assert ends == pytest.approx([-1.0, 1.0], abs=1e-9)


@pytest.mark.parametrize("angle", [0.0, 0.3, 2.0, -1.2])
def test_strip_segment_stable_under_corner_rounding(angle, rng):
    # a strip 2 BOUND_SLACK wide: its end corners tie for the diameter, and
    # each end of the SEGMENT is their mean, the strip's centre line.  The
    # normals are the strip's lines, exact, as half-plane intersections keep them
    unit = complex(math.cos(angle), math.sin(angle))
    corners = (np.array([0, 1.7, 1.7 + 2e-12j, 2e-12j]) + (0.3 - 0.2j)) * unit
    normals = np.mod(angle + np.array([-0.5, 0.0, 0.5, 1.0]) * math.pi, TWO_PI)
    first = int(np.argmin(normals))
    corners, normals = np.roll(corners, -first), np.roll(normals, -first)
    want = region_from_vertices(corners, normals)
    assert want.kind == SEGMENT
    centre = np.array([0.3 - 0.2j + 1e-12j, 2.0 - 0.2j + 1e-12j]) * unit
    assert np.max(np.abs(np.sort_complex(np.array(want.points)) - np.sort_complex(centre))) < 1e-15
    for _ in range(200):
        moved = corners + (rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)) * 1e-16
        got = region_from_vertices(moved, normals)
        assert got.kind == SEGMENT
        assert max(abs(a - b) for a, b in zip(got.points, want.points)) < 1e-15


@pytest.mark.parametrize("grid", [128, 512, 2048])
def test_numeric_strip_demotes_to_its_centre_line(grid):
    # FIG3's Lambda_3 is a segment on the real axis; the numeric strip around
    # it is 2 BOUND_SLACK wide and used to give one of its edges or diagonals
    r = rank_k_numeric(FIG3, 3, grid)
    assert r.kind == SEGMENT
    assert max(abs(p.imag) for p in r.points) < 1e-15


def test_hausdorff_identical_and_shifted():
    d = disk_region()
    assert hausdorff_distance(d, d) == 0.0
    shifted = ConvexRegion(POLYGON, tuple(p + 0.1 for p in d.points), d.normals)
    assert abs(hausdorff_distance(d, shifted) - 0.1) < 1e-6


def test_hausdorff_empty_conventions():
    e = ConvexRegion.empty()
    assert hausdorff_distance(e, e) == 0.0
    assert math.isinf(hausdorff_distance(e, disk_region()))


def test_lens_area():
    a = disk_region()
    b = disk_region(center=1.0)
    lens = intersect_regions(a, b)
    expect = 2 * math.acos(0.5) - 0.5 * math.sqrt(3)
    assert abs(polygon_area(list(lens.points)) - expect) < 1e-3


def test_disjoint_intersection_empty():
    a = disk_region()
    b = disk_region(center=5.0)
    assert intersect_regions(a, b).kind == EMPTY


def test_segment_clip_by_disk():
    seg = ConvexRegion(SEGMENT, (complex(-5, 0), complex(5, 0)))
    cut = intersect_regions(seg, disk_region())
    assert cut.kind == SEGMENT
    assert abs(abs(cut.points[1] - cut.points[0]) - 2.0) < 1e-4


def test_point_region_intersection():
    p = ConvexRegion(POINT, (0.5 + 0j,))
    assert intersect_regions(p, disk_region()).kind == POINT
    far = ConvexRegion(POINT, (5 + 0j,))
    assert intersect_regions(far, disk_region()).kind == EMPTY


def test_containment():
    d = disk_region()
    small = disk_region(0.5)
    assert region_contains_region(d, small, tol=1e-9)
    assert not region_contains_region(small, d, tol=1e-3)
    assert region_contains_region(d, ConvexRegion(POINT, (0.3 + 0.4j,)))
    assert not region_contains_region(d, ConvexRegion(POINT, (1.2 + 0j,)), tol=1e-9)


@pytest.mark.parametrize("z, inside", [
    (5e-5 - 5e-9j, False), (5e-5 - 5e-13j, True), (5e-5 + 5e-9j, True),
    # 8e-13 outside both edge lines at a corner, 1.13e-12 from the square
    (1e-4 + 1e-4j + 8e-13 * (1 + 1j), False)])
def test_contains_small_square_slack_in_distance(z, inside):
    # a POINT meets a region within Euclidean distance 1e-12, whatever the edge length
    square = ConvexRegion(POLYGON, *ccw_loop([0j, 1e-4 + 0j, 1e-4 + 1e-4j, 1e-4j]))
    assert intersect_regions(ConvexRegion(POINT, (z,)), square).kind == (POINT if inside else EMPTY)
    assert intersect_regions(square, ConvexRegion(POINT, (z,))).kind == (POINT if inside else EMPTY)


def _segment(p, q):
    return ConvexRegion(SEGMENT, (complex(p), complex(q)))


@pytest.mark.parametrize("a, b, want", [
    # the side lines of (1, 3) have normals at angle pi/2, whose cosine rounds
    # to 6e-17, so along (0, 2) they are parallel only up to rounding
    (_segment(0, 2), _segment(1, 3), (1, 2)),
    (_segment(0, 2 + 2j), _segment(1 + 1j, 3 + 3j), (1 + 1j, 2 + 2j)),
    (_segment(-0.5, 0.5), ConvexRegion(POLYGON, *ccw_loop([0j, 1 + 0j, 1 + 1j, 1j])), (0, 0.5)),
])
def test_collinear_segments_overlap(a, b, want):
    for x, y in ((a, b), (b, a)):
        got = intersect_regions(x, y)
        assert got.kind == SEGMENT
        assert sorted(got.points, key=lambda z: (z.real, z.imag)) == pytest.approx(want, abs=1e-12)


@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
                min_size=3, max_size=40))
def test_hull_contains_all_points(pts):
    hull = convex_hull(pts)
    assume(is_ccw_loop(hull))
    region = region_from_vertices(*ccw_loop(hull))
    if region.kind != POLYGON:
        return
    pts = np.asarray(pts, dtype=complex)
    assert np.all(oracle_distances(pts, region) <= 1e-9 * np.maximum(1.0, np.abs(pts)))


def test_ellipse_region_area_and_degenerate():
    e = ellipse_region(0.5, math.sqrt(5) / 2, 1.0, 512)
    a = math.sqrt(1 + 5 / 4)
    assert abs(polygon_area(list(e.points)) - math.pi * a) < 1e-3
    seg = ellipse_region(0.0, 0.4, 0.0)
    assert seg.kind == SEGMENT
    pt = ellipse_region(0.3, 0.0, 0.0)
    assert pt.kind == POINT and pt.points[0] == 0.3


def test_region_json():
    d = ConvexRegion(SEGMENT, (complex(-1, 0), complex(1, 0)))
    obj = d.to_json_dict()
    assert obj == {"kind": "SEGMENT", "points": [[-1.0, 0.0], [1.0, 0.0]]}


# half-plane sets for the oracle comparison: normals on a one-degree lattice
# turned by a common offset, so distinct angles never nearly coincide; the
# lists come unsorted and may repeat an angle with different bounds.  Sets
# that collapse keep a width of 1e-13 or more: a set of exactly zero width is
# empty or not by the rounding of its bounds (about 1e-16 here)
_DEG = math.pi / 180
_offsets = st.floats(0.0, 2 * math.pi, exclude_max=True)
_lattice = st.lists(st.integers(0, 359), min_size=1, max_size=40)
_centers = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)


def _hp_through(offset, deg, z0, slack):
    """Half-plane at normal angle offset + deg degrees whose line is slack beyond z0."""
    theta = offset + deg * _DEG
    return HalfPlane(theta, (complex(math.cos(theta), math.sin(theta)) * z0).real + slack)


def _assert_matches_oracle(hps, kind=None):
    got = _intersect(hps, 10)
    want = oracle_halfplane_intersection(hps, 10)
    assert got.kind == want.kind
    if kind is not None:
        assert got.kind == kind
    assert oracle_hausdorff(got, want) <= 1e-9


# bounds keep clear of 0, where three lines through the origin meet in a point
# that exists or not by rounding
_bounds = st.floats(1e-3, 3.0) | st.floats(-1.0, -1e-3)


@given(_offsets, _lattice, st.lists(_bounds, min_size=40, max_size=40))
def test_deque_matches_oracle_random(offset, degs, bounds):
    pairs = list(zip(degs, bounds))
    # opposite normals with opposite bounds would make a strip of zero width
    assume(all(abs(b + b2) > 1e-9 for d, b in pairs for d2, b2 in pairs if (d - d2) % 360 == 180))
    _assert_matches_oracle([HalfPlane(offset + d * _DEG, b) for d, b in pairs])


@given(_offsets, _lattice, _centers, st.sampled_from([1e-13, 1e-12, 1e-10]))
def test_deque_matches_oracle_point(offset, degs, z0, slack):
    # normals every 90 degrees bound the set to within sqrt(2) * slack of z0
    degs = degs + [degs[0] + 90 * q for q in range(1, 4)]
    _assert_matches_oracle([_hp_through(offset, d, z0, slack) for d in degs], POINT)


@given(_offsets, st.integers(0, 179), _lattice, _centers, st.sampled_from([1e-13, 1e-12, 1e-10]))
def test_deque_matches_oracle_segment(offset, axis, degs, z0, width):
    # a strip of the given width through z0, cut by half-planes 0.1 or more beyond z0
    hps = [_hp_through(offset, axis, z0, width), _hp_through(offset, axis + 180, z0, 0.0)]
    hps += [_hp_through(offset, d, z0, 0.1 + 0.01 * j) for j, d in enumerate(degs)]
    _assert_matches_oracle(hps, SEGMENT)


@given(_offsets, st.integers(0, 179), _lattice, _centers, st.floats(1e-6, 1.0))
def test_deque_matches_oracle_empty(offset, axis, degs, z0, gap):
    hps = [_hp_through(offset, axis, z0, -gap), _hp_through(offset, axis + 180, z0, 0.0)]
    hps += [_hp_through(offset, d, z0, 0.5) for d in degs]
    _assert_matches_oracle(hps, EMPTY)


@given(_offsets, st.sets(st.integers(0, 359), min_size=3, max_size=40),
       st.sampled_from([1e-11, 1e-10, 1e-9, 1e-8, 1e-7]))
def test_deque_matches_oracle_nearly_parallel(offset, degs, turn):
    # the edge lines of a whole-degree polygon, each also turned by `turn`
    # about its midpoint: neighbouring normals closer than any grid's, but
    # above ANGLE_EPS, meet inside the set
    pts = np.exp(1j * (offset + np.radians(sorted(degs))))
    hps = []
    for p0, p1 in zip(pts, np.roll(pts, -1)):
        for u, z in ((-1j * (p1 - p0), p0), (-1j * (p1 - p0) * np.exp(1j * turn), (p0 + p1) / 2)):
            u /= abs(u)
            hps.append(HalfPlane(-np.angle(u), (np.conj(u) * z).real))
    assume(polygon_area(pts) > 1e-3)
    _assert_matches_oracle(hps, POLYGON)


@given(st.lists(_centers, min_size=3, max_size=40),
       st.complex_numbers(min_magnitude=0.5, max_magnitude=3, allow_nan=False, allow_infinity=False),
       st.sampled_from([0.0, 1e-12, 1e-3]))
def test_region_from_vertices_matches_oracle(pts, axis, spread):
    # hulls of clouds squeezed towards a line through 0 along axis; of a
    # nearly straight cloud convex_hull may give a loop that repeats a vertex
    # or turns right by more than rounding, which no half-plane intersection
    # gives region_from_vertices
    unit = axis / abs(axis)
    pts = [unit * complex(p.real, spread * p.imag) for p in pts]
    hull = convex_hull(pts)
    assume(is_ccw_loop(hull))
    got = region_from_vertices(*ccw_loop(hull))
    want = oracle_region_from_vertices(hull)
    assert got.kind == want.kind
    assert oracle_hausdorff(got, want) <= 1e-9


# loops for the calipers against the O(V^2) oracle, each turned by `tilt`,
# moved to a centre and taken through convex_hull: regular 2m-gons and
# rectangles (parallel antipodal edges), a 2m-gon with one edge turned 1e-11
# about its end, a parallelogram or one with its top 1e-11 off parallel,
# strips 2e-12 wide, two-vertex flat loops and hulls of random clouds
def _regular(m):
    return np.exp(1j * math.pi * np.arange(2 * m) / m)


def _edge_turned(m, turn):
    z = _regular(m)
    z[0] = z[1] + (z[0] - z[1]) * np.exp(1j * turn)
    return z


_sizes = st.floats(1e-3, 3.0)
_turns = st.sampled_from([1e-11, -1e-11, 0.0])
_loop_shapes = st.one_of(
    st.builds(_regular, st.integers(2, 30)),
    st.builds(lambda w, h: np.array([0, w, w + 1j * h, 1j * h]), _sizes, _sizes),
    st.builds(_edge_turned, st.integers(2, 30), _turns),
    st.builds(lambda w, h, a, t: np.array([0, w, w + a + 1j * (h + w * t), a + 1j * h]),
              _sizes, _sizes, st.floats(-0.4, 0.4), _turns),
    st.builds(lambda w: np.array([0, w, w + 2e-12j, 2e-12j]), st.floats(0.1, 3.0)),
    st.builds(lambda w: np.array([0, w]), st.floats(1e-3, 3.0)),
    st.lists(_centers, min_size=3, max_size=40).map(np.array),
)


@settings(max_examples=400)
@given(_loop_shapes, _offsets, _centers)
# rounding takes one edge's search past the first end of its parallel edge,
# so only the j + 1 candidates of the other pair find the long diagonal
@example(np.array([0, 1, 1.25 + 1j, 0.25 + 1j]), 0.3014614839273489, 0j)
def test_calipers_match_oracle(shape, tilt, center):
    # the hull makes each loop strictly convex and CCW after the move, as
    # _calipers asks; width and diameter agree with the oracle to 1e-12 of
    # the loop's diameter, the scale of the rounding in both
    hull = convex_hull(center + complex(math.cos(tilt), math.sin(tilt)) * shape)
    assume(is_ccw_loop(hull))
    z, phi = map(np.array, ccw_loop(hull))
    i, j, width = _calipers(z, phi)
    p, q = oracle_diameter(z)
    diameter = abs(z[p] - z[q])
    assert abs(abs(z[i] - z[j]) - diameter) <= 1e-12 * diameter
    assert abs(width - oracle_width(z)) <= 1e-12 * diameter


@pytest.mark.parametrize("m, fan", [(3, 6), (4, 4), (6, 2), (12, 3), (40, 4)])
def test_lines_fanned_through_every_vertex(m, fan):
    # each vertex of a regular m-gon comes out as fan + 1 copies equal up to
    # rounding; the short edges between them must not make it a SEGMENT
    pts = np.exp(2j * math.pi * np.arange(m) / m)
    normals = -1j * (np.roll(pts, -1) - pts)
    hps = []
    for k, v in enumerate(pts):
        for t in np.linspace(0.0, 1.0, fan + 2):
            u = normals[k - 1] * (normals[k] / normals[k - 1]) ** t
            u /= abs(u)
            hps.append(HalfPlane(-np.angle(u), (np.conj(u) * v).real))
    got = _intersect(hps, 10)
    assert got.kind == POLYGON
    assert hausdorff_distance(got, ConvexRegion(POLYGON, *ccw_loop(pts))) <= 1e-12


def test_region_from_vertices_large_circle():
    # a dense V x V distance matrix would take 6.4 GB here
    z = np.exp(2j * math.pi * np.arange(20000) / 20000)
    r = region_from_vertices(*ccw_loop(z))
    assert r.kind == POLYGON and len(r.points) == 20000
    assert abs(polygon_area(r.points) - math.pi) < 1e-6


# convex polygons for the polygon-polygon comparison: vertices on an ellipse
# at distinct whole degrees, so every vertex is a strict corner.  Pairs that
# touch overlap by 1e-13 or more where they are compared with the oracle, for
# the reason given above the half-plane sets
def _ellipse_polygon(center, radius, aspect, tilt, degs):
    turn = complex(math.cos(tilt), math.sin(tilt))
    return ConvexRegion(POLYGON, *ccw_loop([
        center + radius * turn * complex(math.cos(d * _DEG), aspect * math.sin(d * _DEG))
        for d in sorted(degs)]))


_polygons = st.builds(_ellipse_polygon, _centers, st.floats(0.2, 2.0), st.floats(0.05, 1.0),
                      _offsets, st.sets(st.integers(0, 359), min_size=3, max_size=40))
_overlaps = st.sampled_from([1e-13, 1e-12, 1e-10])


def _assert_intersection_matches_oracle(a, b, kind=None):
    for p, q in ((a, b), (b, a)):
        got = intersect_regions(p, q)
        want = oracle_intersect_polygons(p, q)
        assert got.kind == want.kind
        if kind is not None:
            assert got.kind == kind
        assert oracle_hausdorff(got, want) <= 1e-9
    return got


def _centroid(region):
    return sum(region.points) / len(region.points)


@given(_polygons, _polygons)
def test_intersect_polygons_matches_oracle(a, b):
    # b turned and moved by a fixed odd amount, so that the two whole-degree
    # lattices never meet exactly (see the exact-touching tests below)
    turn = complex(math.cos(0.3861), math.sin(0.3861))
    b = ConvexRegion(POLYGON, *ccw_loop([turn * p + complex(0.0713, 0.0519) for p in b.points]))
    _assert_intersection_matches_oracle(a, b)


@given(st.floats(-1.0, 1.0), st.floats(0.0, 1.0), st.floats(0.1, 1.0), st.floats(0.1, 3.0),
       st.sampled_from([64, 512, 1024]))
def test_intersect_ellipse_polygons_matches_oracle(center, half_focal, minor, shift, m):
    # a lens of two ellipse polygons sampled at the same parameters: the edge
    # normals of the moved copy equal the first's up to rounding
    a = ellipse_region(center, half_focal, minor, m)
    for other in (center + shift, center + shift * 1j):
        b = ConvexRegion(POLYGON, tuple(p - center + other for p in a.points), a.normals)
        reach = 2 * (minor if other.imag else math.hypot(minor, half_focal))
        assume(abs(shift - reach) > 1e-3)
        _assert_intersection_matches_oracle(a, b, POLYGON if shift < reach else EMPTY)
    c = ellipse_region(center + 0.5 * shift, 0.5 * half_focal, 2 * minor, m)
    _assert_intersection_matches_oracle(a, c)


def test_intersect_triangles_sharing_an_edge():
    # the intersection repeats the shared edge's end vertex up to rounding;
    # the short edge between the copies points anywhere and must not set the width
    a = _ellipse_polygon(0j, 1.0, 0.5, 0.0, {0, 1, 241})
    b = _ellipse_polygon(0j, 1.0, 0.5, 0.0, {0, 1, 252})
    _assert_intersection_matches_oracle(a, b, POLYGON)


def _square(corner, side=1.0):
    return ConvexRegion(POLYGON, *ccw_loop([corner + side * w for w in (0, 1, 1 + 1j, 1j)]))


@pytest.mark.parametrize("corner, side, kind, points", [
    (1.0, 1.0, SEGMENT, (1, 1 + 1j)),  # a shared edge
    (1.0 + 0.5j, 1.0, SEGMENT, (1 + 0.5j, 1 + 1j)),  # part of an edge
    (1 + 1j, 1.0, POINT, (1 + 1j,)),  # a shared corner
    (-1 - 1j, 1.0, POINT, (0,)),
    (1 + 1.5j, 1.0, EMPTY, ()),
    (0.25 + 0.25j, 0.5, POLYGON, (0.25 + 0.25j, 0.75 + 0.25j, 0.75 + 0.75j, 0.25 + 0.75j)),
])
def test_intersect_squares_touching_exactly(corner, side, kind, points):
    # exact input, where the clipping oracle's answer depends on the order of
    # its arguments (its sign tests see the rounding of the normals)
    want = ConvexRegion(kind, tuple(complex(p) for p in points))
    for p, q in ((_square(0), _square(corner, side)), (_square(corner, side), _square(0))):
        got = intersect_regions(p, q)
        assert got.kind == kind
        assert oracle_hausdorff(got, want) <= 1e-12


@given(_polygons, st.integers(0, 39), st.integers(0, 39))
def test_intersect_polygon_halves_meet_on_the_chord(a, start, span):
    # the two parts of a cut along a chord between two of its vertices share
    # that chord exactly
    n = len(a.points)
    assume(n >= 4)
    span = 2 + span % (n - 3)
    pts = a.points[start % n:] + a.points[:start % n]
    one = ConvexRegion(POLYGON, *ccw_loop(pts[:span + 1]))
    two = ConvexRegion(POLYGON, *ccw_loop(pts[span:] + pts[:1]))
    chord = ConvexRegion(SEGMENT, (pts[0], pts[span]))
    for p, q in ((one, two), (two, one)):
        got = intersect_regions(p, q)
        assert got.kind == SEGMENT
        assert hausdorff_distance(got, chord) <= 1e-9


@given(_polygons)
def test_intersect_polygon_with_itself(a):
    got = _assert_intersection_matches_oracle(a, a, POLYGON)
    assert hausdorff_distance(got, a) <= 1e-12


@given(_polygons, st.floats(0.05, 0.95))
def test_intersect_nested_polygons(a, scale):
    # a copy shrunk about the centroid: its edge normals equal a's up to rounding
    c = _centroid(a)
    inner = ConvexRegion(POLYGON, tuple(c + scale * (p - c) for p in a.points), a.normals)
    got = _assert_intersection_matches_oracle(a, inner, POLYGON)
    assert hausdorff_distance(got, inner) <= 1e-9


@given(_polygons, st.integers(0, 39), _overlaps)
def test_intersect_polygons_touching_along_an_edge(a, edge, overlap):
    # the mirror image of a in the line of one of its edges, pushed overlap into a
    pts = a.points
    p0, p1 = pts[edge % len(pts)], pts[(edge + 1) % len(pts)]
    d = (p1 - p0) / abs(p1 - p0)
    mirror = [p0 + d * d * (p - p0).conjugate() + 1j * d * overlap for p in pts]
    b = region_from_vertices(*ccw_loop(convex_hull(mirror)))
    got = _assert_intersection_matches_oracle(a, b, SEGMENT)
    # the sliver ends within overlap / tan(angle) of the edge's ends; the
    # sharpest corners here are about 0.01 degrees
    assert hausdorff_distance(got, ConvexRegion(SEGMENT, (p0, p1))) <= 1e-6


@given(_polygons, st.integers(0, 39), st.sampled_from([1e-13, 1e-12]) | st.floats(-1.0, -1e-6))
def test_intersect_polygons_touching_at_a_vertex(a, vertex, overlap):
    # a turned half a turn about one of its vertices meets a only there.  The
    # turned copy is pushed along the corner's bisector until its vertex lies
    # overlap inside both edges of a's corner (outside, when negative); at a
    # corner of half-angle beta that push is overlap / sin(beta), so sharp
    # corners, where the push would leave the POINT scale, are skipped
    pts = a.points
    k = vertex % len(pts)
    v = pts[k]
    e1 = (pts[k - 1] - v) / abs(pts[k - 1] - v)
    e2 = (pts[(k + 1) % len(pts)] - v) / abs(pts[(k + 1) % len(pts)] - v)
    sin_beta = abs((e1.conjugate() * e2).imag) / abs(e1 + e2)
    assume(sin_beta >= 1e-3)
    push = overlap / sin_beta * (e1 + e2) / abs(e1 + e2)
    b = ConvexRegion(POLYGON, *ccw_loop([2 * v - p + push for p in pts]))
    got = _assert_intersection_matches_oracle(a, b, POINT if overlap > 0 else EMPTY)
    if overlap > 0:
        assert abs(got.points[0] - v) <= 1e-9


# support-function distances against the dense vertex-to-edge oracle.  Both
# are exact up to rounding, which scales with the coordinates
_segments = st.builds(lambda p, q: ConvexRegion(SEGMENT, (p, q)), _centers, _centers).filter(
    lambda s: abs(s.points[1] - s.points[0]) > 1e-3)
_points = st.builds(lambda p: ConvexRegion(POINT, (p,)), _centers)
_by_kind = {POLYGON: _polygons, SEGMENT: _segments, POINT: _points}
_regions = st.one_of(_polygons, _segments, _points)


def _rounding(*regions):
    return 1e-12 * max(1.0, max(abs(p) for r in regions for p in r.points))


def _assert_distances_match_oracle(a, b):
    """hausdorff_distance and region_contains_region agree with the oracle in
    both argument orders; containment is tested just above and just below the
    oracle's directed distance, so it must measure the same quantity."""
    eps = _rounding(a, b)
    for p, q in ((a, b), (b, a)):
        assert abs(hausdorff_distance(p, q) - oracle_hausdorff(p, q)) <= eps
        directed = oracle_directed(q, p)
        for tol in (directed + eps, directed - eps) if directed > eps else (directed + eps,):
            assert region_contains_region(p, q, tol=tol) == oracle_contains(p, q, tol=tol)
    return hausdorff_distance(a, b)


@pytest.mark.parametrize("kinds", [(POLYGON, POLYGON), (POLYGON, SEGMENT), (POLYGON, POINT),
                                   (SEGMENT, SEGMENT), (SEGMENT, POINT), (POINT, POINT)])
@given(st.data())
def test_distances_match_oracle_every_kind(kinds, data):
    a, b = (data.draw(_by_kind[kind]) for kind in kinds)
    _assert_distances_match_oracle(a, b)


@given(_polygons, st.sampled_from([1e-6, 1e-4]), st.integers(1, 4), _regions)
def test_distances_match_oracle_halfplane_loops(a, turn, fan, other):
    # lines fanned through every vertex of a make the intersection repeat it up
    # to rounding, and each edge's line turned by `turn` about its midpoint
    # leaves a vertex where the loop is nearly straight; the edge midpoints
    # put into the loop make collinear vertices, each half on its edge's line
    pts = np.array(a.points)
    normals = -1j * (np.roll(pts, -1) - pts)
    normals /= np.abs(normals)
    hps = []
    for k, v in enumerate(pts):
        spread = np.angle(normals[k] / normals[k - 1])
        for t in np.linspace(0.0, 1.0, fan + 2):
            u = normals[k - 1] * np.exp(1j * t * spread)
            hps.append(HalfPlane(-np.angle(u), (np.conj(u) * v).real))
        mid, u = (v + pts[(k + 1) % len(pts)]) / 2, normals[k] * np.exp(1j * turn)
        hps.append(HalfPlane(-np.angle(u), (np.conj(u) * mid).real))
    loop = _intersect(hps, 10)
    assert loop.kind == POLYGON and len(loop.points) > len(pts)
    z = np.array(loop.points)
    mids = (z + np.roll(z, -1)) / 2
    straight = ConvexRegion(POLYGON, tuple(np.stack([z, mids], axis=1).ravel().tolist()),
                            tuple(np.repeat(loop.normals, 2).tolist()))
    for b in (loop, straight):
        _assert_distances_match_oracle(b, a)
        _assert_distances_match_oracle(b, other)


@given(_regions, _centers.filter(lambda s: abs(s) > 1e-3),
       st.floats(0.05, 3.0).filter(lambda t: abs(t - 1) > 1e-3))
def test_distances_of_moved_copies(a, shift, scale):
    # d_H(A, A + s) = |s|, and for c in A, d_H(A, c + t (A - c)) is |1 - t|
    # times the farthest vertex from c: a code that reads 0 fails both
    eps = _rounding(a) * (1 + abs(shift) + scale)
    moved = ConvexRegion(a.kind, tuple(p + shift for p in a.points), a.normals)
    assert abs(_assert_distances_match_oracle(a, moved) - abs(shift)) <= eps
    c = _centroid(a)
    scaled = ConvexRegion(a.kind, tuple(c + scale * (p - c) for p in a.points), a.normals)
    want = abs(1 - scale) * max(abs(p - c) for p in a.points)
    assert abs(_assert_distances_match_oracle(a, scaled) - want) <= eps
    inner, outer = (scaled, a) if scale < 1 else (a, scaled)
    assert region_contains_region(outer, inner, tol=eps)
    assert want == 0.0 or not region_contains_region(inner, outer, tol=0.9 * want)  # POINT: 0


@given(_regions, st.integers(0, 39))
def test_distances_identical_regions(a, start):
    # the same polygon built from another starting vertex, or the same
    # segment or point with its ends swapped, is the same set
    k = start % len(a.points)
    if a.kind == POLYGON:
        again = ConvexRegion(POLYGON, *ccw_loop(a.points[k:] + a.points[:k]))
    else:
        again = ConvexRegion(a.kind, a.points[::-1])
    for b in (a, again):
        assert _assert_distances_match_oracle(a, b) == 0.0
        assert region_contains_region(a, b, tol=0.0) and region_contains_region(b, a, tol=0.0)


def test_distances_match_oracle_verify_corpus():
    # the (analytic, numeric) range pairs that `reciprange verify` measures
    pairs = 0
    for n, corpus in SEED_CORPUS.items():
        for xi in corpus:
            rep = classify(xi, tol=1e-6)
            if rep.verdict not in ("ALL_CONCENTRIC", "DISPLACED_PAIR"):
                continue
            for k in range(1, (n + 1) // 2 + 1):
                a, b = rank_k_analytic(rep, k), rank_k_numeric(matrix_from_xi(xi), k, 512)
                assert abs(hausdorff_distance(a, b) - oracle_hausdorff(a, b)) <= 1e-15, (xi, k)
                pairs += 1
    assert pairs == 21


# the deque skips the steps that change nothing, and _prune drops lines
# that the deque would pop; against the one-step-per-line oracle every bit
# of the result, vertices and the angles of the lines kept, must be the same.  Inputs: the edge lines
# of convex polygons with lines through or beyond them (exactly touching
# ones too), unboxed or with angles next to the wrap, so that the closing
# lines pop the front; fans of lines through the two ends of a segment, the
# shape of a thin numeric strip, and such fans (or fans through one point)
# of up to 2048 lines with noise on their bounds, whose lines _prune drops
# in rounds before the deque runs; polygon edges next to copies turned about
# 1e-11; triangles with their bounds moved across emptiness, some with their
# normals reversed; two bundles of lines whose normals lie pi or more
# apart, an empty or unbounded set that the deque ends at a turn of pi; and
# the lines of lenses of two ellipses, 64 to 8192 of them, with and without
# noise, whose junctions span hundreds of lines
def _support(pts, phi):
    """h(u) = max Re(conj(u) z) over the points, u = e^{i phi}, for each phi."""
    return np.max((np.exp(-1j * phi)[:, None] * np.asarray(pts)[None, :]).real, axis=1)


_slacks = st.sampled_from([0.0, 1e-14, 1e-12, 1e-3, 0.5])
_near_wrap = st.floats(0.0, 0.3) | st.floats(TWO_PI - 0.3, TWO_PI, exclude_max=True)


@st.composite
def _polygon_lines(draw):
    poly = draw(_polygons)
    phi, c = _edge_halfplanes(poly)
    extra = np.array(draw(st.lists(_offsets | _near_wrap, max_size=40)))
    slack = np.array(draw(st.lists(_slacks, min_size=extra.size, max_size=extra.size)))
    return np.concatenate([phi, extra]), np.concatenate([c, _support(poly.points, extra) + slack])


def _fan_lines(p, length, axis, m, offset, slack):
    phi = offset + TWO_PI * np.arange(m) / m
    return phi, _support([p, p + length * np.exp(1j * axis)], phi) + slack


def _noisy_fan_lines(p, length, axis, m, offset, slack, noise, seed):
    """_fan_lines with every bound off by about noise relative to the largest,
    as the eigensolver leaves lambda_k(theta): nearly every line of such a
    pencil is redundant, the set that _prune thins before the deque runs."""
    phi, c = _fan_lines(p, length, axis, m, offset, slack)
    return phi, c + noise * max(1.0, float(np.max(np.abs(c)))) * np.random.default_rng(seed).standard_normal(m)


def _ellipse_lines(m, center, a, b, tilt):
    """The tangent lines of an ellipse, half-axes a and b turned by tilt about
    center, at m normal angles evenly spaced over the circle."""
    phi = TWO_PI * np.arange(m) / m
    t = phi - tilt
    return phi, (np.exp(-1j * phi) * center).real + np.hypot(a * np.cos(t), b * np.sin(t))


def _lens_lines(m, first, second, noise, seed):
    """At m normal angles evenly spaced over the circle, the tighter of the
    tangent lines of two ellipses, each (center, a, b, tilt), with every bound
    off by about noise relative to the largest: the lines of a lens, as
    lambda_k gives them where it kinks.  Around each corner of the lens the
    lines of either ellipse pass outside the other, and each pops the line
    before it and lines of the run before: a junction, which spans more lines
    the larger m is."""
    phi, c = _ellipse_lines(m, *first)
    c = np.minimum(c, _ellipse_lines(m, *second)[1])
    return phi, c + noise * max(1.0, float(np.max(np.abs(c)))) * np.random.default_rng(seed).standard_normal(m)


_ellipses = st.tuples(_centers.map(lambda z: z / 4), st.floats(0.2, 2.0), st.floats(0.05, 1.0), _offsets)


def _turned_lines(poly, turn):
    pts = np.array(poly.points)
    e = np.roll(pts, -1) - pts
    u = -1j * e / np.abs(e) * np.exp(1j * turn)
    phi, c = _edge_halfplanes(poly)
    return np.concatenate([phi, np.angle(u)]), np.concatenate([c, (np.conj(u) * (pts + e / 2)).real])


def _triangle_lines(poly, sign, gap):
    phi, c = _edge_halfplanes(poly)
    return (phi if sign > 0 else phi + math.pi), sign * c + gap


def _bundle_lines(offset, near, far, bounds):
    phi = offset + np.concatenate([np.array(near) * 0.3, math.pi + 0.3 + np.array(far) * 0.3])
    return phi, np.array(bounds[:phi.size])


_line_sets = st.one_of(
    _polygon_lines(),
    st.builds(_fan_lines, _centers, st.sampled_from([0.0, 1e-9, 0.5, 2.0]), _offsets,
              st.integers(8, 300), _offsets, st.sampled_from([0.0, 1e-13, 1e-12, 1e-10])),
    st.builds(_noisy_fan_lines, st.just(0j) | _centers | _centers.map(lambda z: z * 1e-3),
              st.sampled_from([0.0, 1e-9, 0.5, 2.0]), _offsets,
              st.sampled_from([2047, 2048]) | st.integers(8, 2048), _offsets,
              st.sampled_from([0.0, 1e-13, 1e-12, 1e-10]), st.sampled_from([1e-16, 3e-16, 1e-15]),
              st.integers(0, 2**32 - 1)),
    st.builds(_turned_lines, _polygons, st.sampled_from([1e-11, -1e-11, 2e-12, 1e-10])),
    st.builds(_triangle_lines,
              st.builds(_ellipse_polygon, _centers, st.floats(0.2, 2.0), st.floats(0.05, 1.0),
                        _offsets, st.sets(st.integers(0, 359), min_size=3, max_size=3)),
              st.sampled_from([1, -1]), st.floats(-1.0, 1.0) | st.sampled_from([0.0, -1e-13])),
    st.builds(_bundle_lines, _offsets, st.lists(st.floats(0, 1), min_size=1, max_size=5),
              st.lists(st.floats(0, 1), min_size=1, max_size=5), st.lists(_bounds, min_size=10, max_size=10)),
    st.builds(_lens_lines, st.sampled_from([2048, 8192]) | st.integers(64, 8192), _ellipses, _ellipses,
              st.sampled_from([0.0, 1e-16, 3e-16, 1e-15]), st.integers(0, 2**32 - 1)),
)


def _opposite_lines(phi, c, width):
    """Two half-planes with opposite normals, bounds c and width - c: a strip
    of that width, empty when it is negative."""
    return np.array([phi, phi + math.pi]), np.array([c, width - c])


def _equilateral_lines(bound):
    """Three half-planes at normals 2pi/3 apart, each with this bound: a
    triangle about 0, the point 0 at bound 0, empty below it."""
    return 0.1 + TWO_PI / 3 * np.arange(3), np.full(3, bound)


# sets that touch or just miss: the deque's turn and closing tests decide
# their emptiness without an emptiness certificate, as the oracle keeps one
_TOUCHING = ([_opposite_lines(0.3, 1.0, w) for w in (-1e-13, -1e-15, 0.0, 1e-15)]
             + [_equilateral_lines(b) for b in (-1e-15, 0.0, 1e-15)])
# ten lines (with the box) at which the deque's turn comparison after a
# junction walk, P[i + 1] - P[t] >= pi, fires
_TURN_GUARD = (np.array([1.52, 3.81, 5.26, 7.31]), np.array([5.9, 1.97, 1.46, 6.96])), True


def _examples(cases):
    """A hypothesis @example for each (lines, boxed) of cases."""
    def add(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return add


@given(_line_sets, st.booleans())
# a pencil through a subnormal point, where every slack underflows, and one
# whose bounds are as noisy as its slack, where the deque's pops (front pops
# too) are near ties: pruning at four times the deque's slack, with no floor
# at the smallest normal float, changed both
@example(_fan_lines(2.225073858507e-311 + 0j, 0.0, 0.0, 51, 0.0, 0.0), False)
@example(_noisy_fan_lines(0.00075 + 0.001j, 0.0, 0.0, 1288, 0.8046875, 1e-13, 1e-16, 1288), False)
# a lens of four junctions, each walked over hundreds of lines before and
# after its event line
@example(_lens_lines(8192, (0.1, 1.0, 0.5, 0.3), (-0.2 + 0.1j, 0.8, 0.6, 1.2), 1e-16, 0), True)
@example(*_TURN_GUARD)
@_examples((lines, boxed) for lines in _TOUCHING for boxed in (False, True))
def test_deque_skips_change_no_decision(lines, boxed):
    phi, c = lines
    sets = [(np.mod(phi, TWO_PI), c)] + ([(_BOX_PHI, np.full(4, 10.0))] if boxed else [])
    phi, c = _by_angle(*sets)
    got, want = _intersect_sorted(phi, c), oracle_deque_vertices(phi, c)
    assert (got is None) == (want is None)
    assert got is None or all(map(np.array_equal, got, want))


def test_turn_guard_fires_and_changes_no_decision():
    # after a junction walk that ends with lines t, i, i + 1, the deque stops
    # walking when lines t and i + 1 turn pi or more; here it does, and the
    # scalar loop then gives the oracle's result
    (phi, c), boxed = _TURN_GUARD
    phi, c = _by_angle((np.mod(phi, TWO_PI), c), *([(_BOX_PHI, np.full(4, 10.0))] if boxed else []))
    turns = []
    deque_, staircase = geometry._deque, geometry._staircase

    def spy_deque(P, *args):
        turns.append(P)
        return deque_(P, *args)

    def spy_staircase(*args):
        walk = staircase(*args)
        if walk is not None:
            t, i = walk
            turns.append(turns[0][i + 1] - turns[0][t])
        return walk

    with mock.patch.object(geometry, "_deque", spy_deque), mock.patch.object(geometry, "_staircase", spy_staircase):
        got = _intersect_sorted(phi, c)
    assert any(turn >= math.pi for turn in turns[1:])
    want = oracle_deque_vertices(phi, c)
    assert got is not None and want is not None and all(map(np.array_equal, got, want))


# tangent lines of ellipses whose inradius about 0 lies on either side of
# FAT_INRADIUS, some of them thin strips, some of area below AREA_EPS
_tiny = st.floats(-4.0, 3.0).map(lambda e: 2**e * FAT_INRADIUS)
_tiny_ellipse_lines = st.builds(_ellipse_lines, st.integers(8, 300), _centers.map(lambda z: z * FAT_INRADIUS / 16),
                                _tiny, _tiny, _offsets)


@given(_line_sets | _tiny_ellipse_lines, st.booleans())
# a disk of inradius 0.4 FAT_INRADIUS has an area below AREA_EPS: a SEGMENT
@example(_ellipse_lines(64, 0j, 0.4 * FAT_INRADIUS, 0.4 * FAT_INRADIUS, 0.0), False)
@example(_ellipse_lines(64, 0j, 1.01 * FAT_INRADIUS, 1.01 * FAT_INRADIUS, 0.0), True)
def test_inradius_gate_changes_no_decision(lines, boxed):
    # the disk about 0 of radius min(c) lies inside every half-plane; a loop
    # classified with it as inradius is the loop classified without
    phi, c = lines
    phi, c = _by_angle((np.mod(phi, TWO_PI), c), *([(_BOX_PHI, np.full(4, 10.0))] if boxed else []))
    loop = _intersect_sorted(phi, c)
    if loop is not None:
        fast, full = region_from_vertices(*loop, float(np.min(c))), region_from_vertices(*loop)
        assert fast == full and np.array_equal(fast.normals, full.normals)


# the tangent lines of an ellipse make an event-free set: no line cuts the
# corner of the two before it or the front corner of lines 0 and 1, and no
# turn reaches pi, so every line joins the deque at once.  Two corners are
# then taken one at a time, one for each test of the closing step, which pops
# nothing; the front test of the whole run reads the corner of lines 0 and 1
# from the array of neighbouring lines' corners.
# The box lines, far outside, cut corners of the lines around them and take
# the general loop
@pytest.mark.parametrize("boxed", [False, True])
@pytest.mark.parametrize("ellipse", [(0j, 1.0, 1.0, 0.0), (0.3 - 0.2j, 2.0, 0.05, 0.7), (1 + 1j, 0.5, 0.2, 2.0)])
@pytest.mark.parametrize("m", [8, 9, 2048, 2049, 4097])
def test_event_free_sets_match_oracle(m, ellipse, boxed):
    phi, c = _by_angle(_ellipse_lines(m, *ellipse), *([(_BOX_PHI, np.full(4, 10.0))] if boxed else []))
    calls = 0
    corner = geometry._corner

    def count(*args):
        nonlocal calls
        calls += np.ndim(args[0]) == 0
        return corner(*args)

    with mock.patch.object(geometry, "_corner", count):
        got = _intersect_sorted(phi, c)
    want = oracle_deque_vertices(phi, c)
    assert got is not None and all(map(np.array_equal, got, want))
    if not boxed:
        assert got[1].size == m and calls == 2


# three or four lines whose only turn of pi or more lies between lines 0 and
# 1: the deque meets it before any event, so the set ends there, empty or
# unbounded, however the lines after it join
@pytest.mark.parametrize("bounds", [(1.0, 1.0, 1.0, 1.0), (1.0, -2.0, 0.5, 3.0), (1.0, 1.0, 50.0, 50.0),
                                    (-1.0, 1.0, 50.0, 50.0)])
@pytest.mark.parametrize("turns", [(math.pi, 0.4), (math.pi + 1e-9, 0.4), (math.pi + 0.5, 0.4),
                                   (math.pi, 0.3, 0.5), (math.pi + 0.2, 0.3, 0.5)])
@pytest.mark.parametrize("offset", [0.0, 0.2])
def test_turn_between_first_lines_matches_oracle(offset, turns, bounds):
    phi = offset + np.cumsum((0.0,) + turns)
    c = np.array(bounds[:phi.size])
    assert _intersect_sorted(phi, c) is None and oracle_deque_vertices(phi, c) is None
