"""Reference geometry kept as an oracle for ``reciprange.geometry``.

Sutherland-Hodgman clipping of a box (or of a polygon) by one half-plane at
a time (O(T*V)), region demotion from the dense V x V diameter matrix and
the O(V^2) width scan, and Hausdorff distance and containment from the dense
N x E scan of every vertex against every edge.  All are slow but independent
of the sorted-angle deque, the rotating calipers and the support functions
the package uses, so the tests compare the two.

``ellipse_region`` samples an ellipse into a polygon and
``hausdorff_point_sets`` compares finite point sets; the package describes
ellipses by their support functions and needs neither.  ``ccw_loop`` gives
a convex loop known by its points alone the edge normals that a package
POLYGON keeps of the half-planes it was cut from; ``is_ccw_loop`` tells
whether points make such a loop (a hull of a nearly straight cloud from
``convex_hull`` may not).

``oracle_deque_vertices`` is not independent: it is the package's
sorted-angle deque with one Python step per line.  The package skips the
steps that change nothing and first drops, in whole-array rounds, lines
that the deque would pop; the tests ask for bitwise-equal results.  It
also checks every line against the vertex extreme in its normal, an
emptiness certificate the package leaves to the deque's own tests, so a set
that only the certificate finds empty would show as a mismatch.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from reciprange.geometry import (
    ANGLE_EPS,
    AREA_EPS,
    EMPTY,
    POINT,
    POLYGON,
    SEGMENT,
    SIDE_EPS,
    TWO_PI,
    WIDTH_EPS,
    ConvexRegion,
    _corner,
)

CERT_EPS = 1e-10  # relative violation the oracle's emptiness certificate tolerates


@dataclass(frozen=True)
class HalfPlane:
    """{z : Re(e^{i theta} z) <= bound}, one input of the clipping oracle."""

    theta: float
    bound: float


def _clip_array(arr: np.ndarray, theta: float, bound: float) -> np.ndarray:
    """Sutherland-Hodgman step on a complex vertex array: keep Re(e^{i theta} z) <= bound."""
    w = cmath.exp(1j * theta)
    vals = (w * arr).real - bound
    keep = vals <= 0
    if keep.all():
        return arr
    if not keep.any():
        return arr[:0]
    vn = np.roll(vals, -1)
    crossing = keep != (vn <= 0)
    denom = np.where(vals == vn, 1.0, vals - vn)
    cuts = arr + (vals / denom) * (np.roll(arr, -1) - arr)
    counts = keep.astype(np.int64) + crossing.astype(np.int64)
    starts = np.cumsum(counts) - counts
    out = np.empty(int(counts.sum()), dtype=complex)
    out[starts[keep]] = arr[keep]
    out[(starts + keep.astype(np.int64))[crossing]] = cuts[crossing]
    return out


def _polygon_area(pts) -> float:
    n = len(pts)
    s = 0.0
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        s += a.real * b.imag - b.real * a.imag
    return s / 2


def oracle_width(arr) -> float:
    """The least distance between two parallel supporting lines of a convex
    loop, from every edge's normal in turn; 0 below three vertices."""
    n = len(arr)
    if n < 3:
        return 0.0
    best = math.inf
    for i in range(n):
        d = arr[(i + 1) % n] - arr[i]
        L = abs(d)
        if L == 0:
            continue
        proj = ((arr - arr[i]) * np.conj(d / L * 1j)).real
        best = min(best, float(np.max(proj) - np.min(proj)))
    return 0.0 if best is math.inf else best


def oracle_diameter(arr):
    """The farthest vertex pair (i, j), first in row-major order, from the
    dense V x V distance matrix, taken 256 rows at a time."""
    best, pair = -1.0, (0, 0)
    for lo in range(0, arr.size, 256):
        d = np.abs(arr[lo:lo + 256, None] - arr[None, :])
        i, j = np.unravel_index(np.argmax(d), d.shape)
        if d[i, j] > best:
            best, pair = d[i, j], (lo + i, j)
    return pair


def oracle_region_from_vertices(pts) -> ConvexRegion:
    """Demotion by brute force: POINT below WIDTH_EPS diameter, SEGMENT below
    AREA_EPS area or WIDTH_EPS width."""
    pts = [complex(p) for p in pts]
    if not pts:
        return ConvexRegion.empty()
    if len(pts) == 1:
        return ConvexRegion(POINT, (pts[0],))
    arr = np.asarray(pts, dtype=complex)
    i, j = oracle_diameter(arr)
    if abs(arr[i] - arr[j]) < WIDTH_EPS:
        return ConvexRegion(POINT, (sum(pts) / len(pts),))
    area = _polygon_area(pts)
    if len(pts) == 2 or abs(area) < AREA_EPS or oracle_width(arr) < WIDTH_EPS:
        return ConvexRegion(SEGMENT, (pts[i], pts[j]))
    return ConvexRegion(POLYGON, tuple(pts if area >= 0 else pts[::-1]))


def oracle_halfplane_intersection(halfplanes, box_halfwidth) -> ConvexRegion:
    """Clip the centered square by each half-plane in turn."""
    r = float(box_halfwidth)
    pts = np.array([complex(-r, -r), complex(r, -r), complex(r, r), complex(-r, r)])
    for hp in halfplanes:
        pts = _clip_array(pts, hp.theta, hp.bound)
        if len(pts) == 0:
            return ConvexRegion.empty()
    return oracle_region_from_vertices(pts)


def oracle_intersect_polygons(a: ConvexRegion, b: ConvexRegion) -> ConvexRegion:
    """Clip POLYGON a by the half-plane of each edge of POLYGON b in turn."""
    pts = np.asarray(a.points, dtype=complex)
    q = np.asarray(b.points, dtype=complex)
    for p0, p1 in zip(q, np.roll(q, -1)):
        if p1 == p0:
            continue
        # inside a CCW loop lies left of p0 -> p1: Im(conj(p1 - p0) (z - p0)) >= 0,
        # that is Re(e^{i theta} z) <= bound with e^{i theta} = i conj(p1 - p0) / |p1 - p0|
        w = 1j * np.conj(p1 - p0) / abs(p1 - p0)
        pts = _clip_array(pts, cmath.phase(w), (w * p0).real)
        if len(pts) == 0:
            return ConvexRegion.empty()
    return oracle_region_from_vertices(pts)


def _edge_distances(zs, edges_a, d, polygon):
    """Distances from points zs to the edges edges_a + [0, 1] d (N x E
    arrays), 0 for a point inside when the edges are a POLYGON's."""
    dist = np.zeros(zs.shape)
    out = np.ones(zs.shape, dtype=bool)
    if polygon:
        # points inside are at distance zero: all edge cross-products >= 0 (CCW),
        # where a point up to 1e-12 outside an edge's line counts as on it
        w = zs[:, None] - edges_a[None, :]
        cross = d.real[None, :] * w.imag - d.imag[None, :] * w.real
        out = ~np.all(cross >= -1e-12 * np.abs(d)[None, :], axis=1)
    zs = zs[out]
    L2 = np.abs(d) ** 2
    L2 = np.where(L2 == 0, 1.0, L2)
    w = zs[:, None] - edges_a[None, :]
    t = np.clip((w.real * d.real[None, :] + w.imag * d.imag[None, :]) / L2[None, :], 0.0, 1.0)
    proj = edges_a[None, :] + t * d[None, :]
    dist[out] = np.min(np.abs(zs[:, None] - proj), axis=1, initial=math.inf)
    return dist


def oracle_distances(zs, region: ConvexRegion) -> np.ndarray:
    """Distances from an array of points to a convex region: 0 inside a
    POLYGON, else to the nearest point of every edge, 256 points at a time."""
    zs = np.asarray(zs, dtype=complex).ravel()
    if region.kind == EMPTY:
        return np.full(zs.shape, math.inf)
    if region.kind == POINT:
        return np.abs(zs - region.points[0])
    pts = np.asarray(region.points, dtype=complex)
    if region.kind == SEGMENT:
        edges_a, edges_b = pts[:1], pts[1:]
    else:
        edges_a = pts
        edges_b = np.roll(pts, -1)
    d = edges_b - edges_a  # (E,)
    return np.concatenate([_edge_distances(zs[lo:lo + 256], edges_a, d, region.kind == POLYGON)
                           for lo in range(0, zs.size, 256)])


def oracle_directed(a: ConvexRegion, b: ConvexRegion) -> float:
    """The largest distance from a vertex of nonempty a to b: for convex a the
    farthest point of a from b is a vertex."""
    return float(np.max(oracle_distances(np.asarray(a.points), b)))


def oracle_hausdorff(a: ConvexRegion, b: ConvexRegion) -> float:
    """Symmetric Hausdorff distance; EMPTY vs EMPTY is 0, EMPTY vs other +inf."""
    if a.kind == EMPTY and b.kind == EMPTY:
        return 0.0
    if a.kind == EMPTY or b.kind == EMPTY:
        return math.inf
    return max(oracle_directed(a, b), oracle_directed(b, a))


def oracle_contains(outer: ConvexRegion, inner: ConvexRegion, tol=1e-8) -> bool:
    """Every vertex of inner lies within tol of outer."""
    if inner.kind == EMPTY:
        return True
    if outer.kind == EMPTY:
        return False
    return oracle_directed(inner, outer) <= tol


def oracle_deque_vertices(phi, c):
    """``geometry._intersect_sorted`` with one Python step per line: the
    vertices (CCW, complex) of {z : u_j . z <= c_j for all j}, u_j = e^{i phi_j},
    and the angles of the lines kept, or None when the intersection is empty."""
    first = np.flatnonzero(np.concatenate(([True], np.diff(phi) > ANGLE_EPS)))
    c = np.minimum.reduceat(c, first)
    phi = phi[first]
    if phi.size > 1 and phi[0] + TWO_PI - phi[-1] <= ANGLE_EPS:
        c[0] = min(c[0], c[-1])
        phi, c = phi[:-1], c[:-1]
    ux, uy = np.cos(phi), np.sin(phi)
    X, Y, C, P = ux.tolist(), uy.tolist(), c.tolist(), phi.tolist()

    def outside(k, i, j):
        x, y = _corner(X[i], Y[i], C[i], X[j], Y[j], C[j])
        return X[k] * x + Y[k] * y - C[k] > SIDE_EPS * (abs(x) + abs(y) + abs(C[k]))

    dq = deque()
    for k in range(len(C)):
        while len(dq) > 1 and outside(k, dq[-2], dq[-1]):
            dq.pop()
        while len(dq) > 1 and outside(k, dq[0], dq[1]):
            dq.popleft()
        if dq and P[k] - P[dq[-1]] >= math.pi:
            return None
        dq.append(k)
    while len(dq) > 2 and outside(dq[0], dq[-2], dq[-1]):
        dq.pop()
    while len(dq) > 2 and outside(dq[-1], dq[0], dq[1]):
        dq.popleft()
    if len(dq) < 3 or P[dq[0]] + TWO_PI - P[dq[-1]] >= math.pi:
        return None

    lines = np.fromiter(dq, dtype=np.intp, count=len(dq))
    lx, ly, lc = ux[lines], uy[lines], c[lines]
    vx, vy = _corner(np.roll(lx, 1), np.roll(ly, 1), np.roll(lc, 1), lx, ly, lc)
    extreme = np.searchsorted(phi[lines], phi) % lines.size
    violation = ux * vx[extreme] + uy * vy[extreme] - c
    if np.max(violation) > CERT_EPS * max(1.0, float(np.max(np.abs(c)))):
        return None
    return vx + 1j * vy, phi[lines]


def is_ccw_loop(pts) -> bool:
    """Is pts a convex CCW loop of two or more vertices, none repeated?  Every
    turn between edge directions must be left (or straight, up to
    ANGLE_EPS), and the turns must add up to one full turn."""
    z = np.asarray(pts, dtype=complex).ravel()
    e = np.roll(z, -1) - z
    if z.size < 2 or np.any(e == 0):
        return False
    with np.errstate(all="ignore"):  # subnormal edges turn by NaN: no loop
        turns = np.mod(np.angle(np.roll(e, -1) / e) + ANGLE_EPS, TWO_PI) - ANGLE_EPS
    return abs(float(np.sum(turns)) - TWO_PI) <= 1e-9


def ccw_loop(pts):
    """(points, normals) of a convex CCW loop given by its points alone (see
    ``is_ccw_loop``, which it asserts): the outward normal angle of each edge
    from its direction, and the loop started at the edge of least angle, so
    that the normals increase as a POLYGON's do."""
    assert is_ccw_loop(pts), "not a convex CCW loop without repeated vertices"
    z = np.asarray(pts, dtype=complex).ravel()
    phi = np.mod(np.angle(-1j * (np.roll(z, -1) - z)), TWO_PI)  # a CCW edge turned by -90 degrees
    first = int(np.argmin(phi))
    return tuple(np.roll(z, -first).tolist()), tuple(np.roll(phi, -first).tolist())


def ellipse_boundary(center: float, half_focal: float, minor: float, m: int = 1024):
    """CCW boundary points of the ellipse with real center, foci center +- X."""
    a = math.sqrt(minor * minor + half_focal * half_focal)
    ts = np.linspace(0.0, 2 * math.pi, m, endpoint=False)
    return center + a * np.cos(ts) + 1j * minor * np.sin(ts)


def ellipse_region(center: float, half_focal: float, minor: float, m: int = 1024) -> ConvexRegion:
    """The ellipse as an inscribed m-gon, a SEGMENT between the foci when
    minor is 0, or a POINT when half_focal is 0 as well."""
    if minor <= 0:
        lo, hi = center - half_focal, center + half_focal
        if half_focal <= 0:
            return ConvexRegion(POINT, (complex(center),))
        return ConvexRegion(SEGMENT, (complex(lo), complex(hi)))
    return ConvexRegion(POLYGON, *ccw_loop(ellipse_boundary(center, half_focal, minor, m)))


def hausdorff_point_sets(P, Q) -> float:
    """Symmetric Hausdorff distance between finite point sets (arrays of complex)."""
    P = np.asarray(P, dtype=complex).ravel()
    Q = np.asarray(Q, dtype=complex).ravel()
    d = np.abs(P[:, None] - Q[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
