"""Convex regions in the complex plane: half-plane intersection, hulls, Hausdorff.

Regions are polygons with complex vertices (counterclockwise), demoted to
SEGMENT / POINT / EMPTY when the area or width collapses.  Internally a
half-plane {z : Re(e^{i theta} z) <= bound} is u . z <= bound with the outward
unit normal u = e^{i phi}, phi = -theta.  A polygon keeps the angles phi of
the lines its edges lie on, so width, support functions and edge
half-planes never come from differences of rounded vertices.  Hausdorff
distance and containment compare support functions h(u) = max Re(conj(u) z):
exact for convex regions and O(N + E) in their vertex counts.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

AREA_EPS = 1e-14
WIDTH_EPS = 1e-8
# a loop holding the disk of this radius about 0 is wider than WIDTH_EPS and
# larger than AREA_EPS with a factor 4 to spare: a POLYGON
FAT_INRADIUS = 2 * max(WIDTH_EPS, math.sqrt(AREA_EPS / math.pi))
ANGLE_EPS = 1e-12  # outward normals closer than this count as equal
SIDE_EPS = 1e-14  # a corner outside a line by less than this, relative, lies on it
PRUNE_MIN = 16  # _prune runs while a round drops at least this many lines
PRUNE_MARGIN = 16.0  # _prune drops a line that the deque's test pops by this many times its slack
TWO_PI = 2 * math.pi
TINY = sys.float_info.min  # the smallest normal float
_BOX_PHI = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])

POLYGON = "POLYGON"
SEGMENT = "SEGMENT"
POINT = "POINT"
EMPTY = "EMPTY"


@dataclass(frozen=True)
class ConvexRegion:
    kind: str
    points: tuple  # CCW vertices (POLYGON), endpoints (SEGMENT), single point (POINT)
    # POLYGON: the increasing outward normal angle of each edge, points[j] to
    # points[j + 1], in [0, 2pi]: the lines of the half-planes it was cut from
    # (a read-only float array from region_from_vertices)
    normals: np.ndarray = field(default=(), compare=False, repr=False)

    @staticmethod
    def empty():
        return ConvexRegion(EMPTY, ())

    def to_json_dict(self):
        return {"kind": self.kind, "points": [[z.real, z.imag] for z in self.points]}


def polygon_area(pts) -> float:
    """Signed shoelace area; positive for a counterclockwise loop."""
    z = np.asarray(pts, dtype=complex).ravel()
    w = np.roll(z, -1)
    return float(np.sum(z.real * w.imag - w.real * z.imag)) / 2


def _calipers(z, phi):
    """Rotating calipers on a convex CCW loop, without a Python loop.

    phi[j], increasing, is the outward normal angle of edge j (z[j] to
    z[j + 1]).  Returns (i, j, width): the farthest vertex pair z[i], z[j]
    and the least distance between two parallel supporting lines.  Vertex j
    supports the directions between phi[j - 1] and phi[j], so the antipodal
    vertex of every edge, the support vertex of its negated normal, comes
    from one searchsorted over phi: O(V log V).  Of an edge parallel to edge
    i rounding may give either end.
    """
    m = z.size
    i0 = np.arange(m)
    i1 = np.roll(i0, -1)
    j0 = np.searchsorted(phi, np.mod(phi + math.pi, TWO_PI)) % m
    j1 = (j0 + 1) % m
    width = float(np.min((np.exp(-1j * phi) * (z - z[j0])).real))
    # every antipodal pair has an endpoint of some edge and that edge's antipodal
    # vertex (or its successor, when the two edges are parallel)
    a = np.concatenate([i0, i1, i0, i1])
    b = np.concatenate([j0, j0, j1, j1])
    best = int(np.argmax(np.abs(z[a] - z[b])))
    return int(a[best]), int(b[best]), width


def region_from_vertices(pts, normals, inradius=0.0) -> ConvexRegion:
    """Classify a convex CCW vertex loop into POLYGON/SEGMENT/POINT.

    normals[j], increasing, is the outward normal angle of edge j (pts[j] to
    pts[j + 1]): the lines a half-plane intersection keeps, which fix the
    loop's directions however close its vertices come.  Demotion: diameter
    below WIDTH_EPS collapses to POINT; a width below WIDTH_EPS or an area
    below AREA_EPS collapses to SEGMENT along the diameter, each end the mean
    of the vertices whose projection on it lies within the loop's spread
    across it of the extreme.  Area, diameter and width take O(V log V).

    ``inradius`` is the radius of a disk about 0 that the caller knows lies
    inside the loop (0 if none).  The width, and so the diameter, is then at
    least 2 inradius and the area at least pi inradius^2, so above
    FAT_INRADIUS, which leaves a factor 4 in both for the rounding of the
    vertices, the loop is a POLYGON without the width, the area or the
    diameter.
    """
    z = np.asarray(pts, dtype=complex).ravel()
    phi = np.array(normals, dtype=float)
    phi.setflags(write=False)
    if inradius > FAT_INRADIUS:
        return ConvexRegion(POLYGON, tuple(z.tolist()), phi)
    i, j, width = _calipers(z, phi)
    # every vertex projects between the diameter pair along its direction, so
    # the extremes of that projection are the pair again
    rel = (z - z[i]) * np.conj(z[j] - z[i])
    along = rel.real
    lo, hi = int(np.argmin(along)), int(np.argmax(along))
    if abs(z[hi] - z[lo]) < WIDTH_EPS:
        return ConvexRegion(POINT, (complex(z.mean()),))
    if abs(polygon_area(z)) < AREA_EPS or width < WIDTH_EPS:
        # on a thin strip the corners at each end tie for the extreme, so
        # each end is the mean of the vertices whose projection lies within
        # the loop's spread across the diameter of it, which rounding cannot
        # flip; the ends keep the loop's order
        reach = float(np.ptp(rel.imag))
        ends = sorted((np.flatnonzero(along <= along[lo] + reach),
                       np.flatnonzero(along >= along[hi] - reach)), key=lambda e: e[0])
        return ConvexRegion(SEGMENT, tuple(complex(z[e].mean()) for e in ends))
    return ConvexRegion(POLYGON, tuple(z.tolist()), phi)


def _by_angle(*lists):
    """Concatenate (phi, c) half-plane lists into one in increasing angle order.

    A theta grid arrives as at most two increasing runs, which the stable
    (run-detecting) sort merges in linear time; order within equal angles
    does not matter, as _intersect_sorted keeps only their tightest bound.
    """
    phi = np.concatenate([p for p, _ in lists])
    c = np.concatenate([c for _, c in lists])
    order = np.argsort(phi, kind="stable")
    return phi[order], c[order]


def _corner(xi, yi, ci, xj, yj, cj):
    """The meeting point of the lines u_i . z = c_i and u_j . z = c_j (unit u).

    Taken as c_i u_i + t (i u_i), the foot of line i plus a step along it, so
    that it lies on line i to rounding however nearly parallel the lines are
    (Cramer's rule is off by about 1e-16/sin(angle) across both).  The
    differences of the normals keep sin(angle) and 1 - cos(angle) accurate.
    """
    dx, dy = xj - xi, yj - yi
    t = (cj - ci + ci * (dx * dx + dy * dy) / 2) / (xi * dy - yi * dx)
    return ci * xi - t * yi, ci * yi + t * xi


def _excess(x, y, k):
    """(excess, slack): how far the point (x, y) lies outside line k, given as
    a row (u_x, u_y, c), and the rounding slack of that test; _deque's
    outside() pops where excess > slack, and both are NaN where the point is
    not finite."""
    return k[0] * x + k[1] * y - k[2], SIDE_EPS * (np.abs(x) + np.abs(y) + np.abs(k[2]))


def _side(a, b, k):
    """_excess of the corner of lines a and b against line k, all given as
    rows (u_x, u_y, c)."""
    return _excess(*_corner(*a, *b), k)


def _cuts(excess, slack):
    """Where a corner lies outside a line by PRUNE_MARGIN times its slack, and
    by more than the smallest normal float: below it rounding is absolute."""
    return excess > PRUNE_MARGIN * (slack + TINY)


def _spread(room):
    """(owner, first, step) of room[o] consecutive items for each owner o: each
    item's owner, the index of its owner's first item, and its step from it."""
    owner = np.repeat(np.arange(room.size), room)
    first = np.repeat(np.cumsum(room) - room, room)
    return owner, first, np.arange(owner.size) - first


def _prefix(hit, first):
    """Where hit holds at an item and at every item of its owner before it."""
    missed = np.cumsum(~hit)
    return missed == (missed - ~hit)[first]


def _prune(phi, lines, back, cut):
    """The lines that whole-array rounds leave of sorted half-planes: (S, b),
    S their indices and b the deque's back test on them.  lines[:, j] holds
    (u_x, u_y, c) of line j; back[k - 2] says that line k pops nothing at the
    back of a deque ending with lines k - 2, k - 1, and cut[k - 2] that line
    k cuts their corner by PRUNE_MARGIN times the test's slack.

    A line whose corner with the line before it lies outside the line after
    it is redundant between the two: the deque pops it as soon as it ends
    with them.  Each round drops the first line of each run of such lines,
    so that its two neighbours stay, and follows each drop along a chain of
    lines that the same test shows redundant once the lines between are
    gone: ahead of the drop, against the line before it; behind the drop,
    against the first line left standing after it.  A chain stops at its
    first line left standing, short of the next drop.  The lines of a pencil
    through nearly one point tie among themselves and only lines at its ends
    show them redundant, so the chains are what empty it.  Then the
    neighbours of dropped lines are tested again.  A test across a turn of
    pi or more drops nothing (the deque must still meet that turn), and the
    rounds end with one that drops fewer than PRUNE_MIN lines.
    """
    S = np.arange(phi.size)
    back = np.concatenate(([True], back, [True]))  # back[t]: the test of S[t - 1], S[t] at S[t + 1]
    pos = np.flatnonzero(cut) + 1

    def chain(q, a, k, first):
        """Where line S[q] and every line before it in its chain are redundant
        between lines a and k."""
        redundant = _cuts(*_side(lines[:, a], lines[:, S[q]], lines[:, k])) & (phi[k] - phi[a] < math.pi)
        return _prefix(redundant, first)

    while True:
        pos = pos[phi[S[pos + 1]] - phi[S[pos - 1]] < math.pi]
        head = np.ones(pos.size, dtype=bool)
        head[1:] = pos[1:] != pos[:-1] + 1
        drop = pos[head]
        if drop.size == 0:
            break
        gone = np.zeros(S.size, dtype=bool)
        gone[drop] = True
        window = max(4, S.size // drop.size)
        # ahead: up to two short of the next drop, whose neighbours stay
        ahead = np.concatenate((drop[1:] - 2, [S.size - 2]))
        owner, first, step = _spread(np.clip(ahead - drop, 0, window))
        q = drop[owner] + 1 + step
        hit = chain(q, S[drop[owner] - 1], S[q + 1], first)
        gone[q[hit]] = True
        reach = drop + np.bincount(owner[hit], minlength=drop.size)  # the last line each drops
        # behind: down to two past the reach of the drop before
        behind = np.concatenate(([1], reach[:-1] + 2))
        owner, first, step = _spread(np.maximum(drop - np.maximum(behind, drop - window), 0))
        q = drop[owner] - 1 - step
        gone[q[chain(q, S[q - 1], S[reach[owner] + 1], first)]] = True
        dropped = int(np.count_nonzero(gone))
        near = np.zeros(S.size, dtype=bool)
        near[:-1] = gone[1:]
        near[1:] |= gone[:-1]
        S, back, near = S[~gone], back[~gone], near[~gone]
        near[[0, -1]] = False
        pos = np.flatnonzero(near)
        excess, slack = _side(lines[:, S[pos - 1]], lines[:, S[pos]], lines[:, S[pos + 1]])
        back[pos] = excess <= slack
        pos = pos[_cuts(excess, slack)]
        if dropped < PRUNE_MIN:
            break
    return S, back[1:-1]


def _intersect_sorted(phi, c):
    """(vertices, normals) of {z : u_j . z <= c_j for all j}, u_j = e^{i phi_j},
    or None when the intersection is empty: the vertices CCW and complex,
    and the increasing angles of the lines kept, edge j (vertex j to vertex
    j + 1) on line j.

    phi must be increasing in [0, 2pi] and the intersection bounded.  Sorted-angle
    deque algorithm (de Berg et al., Computational Geometry, ch. 4), O(T).  While
    the deque ends with lines k - 2, k - 1, line k pops nothing at the back
    unless it cuts their corner, and ends the set only if it turns pi or more
    from line k - 1; both tests run for every k at once, so a run of lines
    without either event joins the deque in one step, up to the first of them
    that cuts the front corner (a front cut tests the rest of its run again,
    against the new corner).  Where PRUNE_MIN or more lines cut their
    corner, as in the pencils of a numeric range that is a point or a thin
    strip, _prune first drops in whole-array rounds lines that the deque
    would pop, and the deque runs on the rest.  Python steps only at pops,
    front cuts and turns of pi.  A set without any of these events, as the
    tangent lines of a convex curve are, takes no per-line Python step at
    all: its lines join as one run, and _deque gives the kept ones as a
    slice.  At the kinks of a lens, an event line meets a long run, and it
    and the lines after it pop a staircase of lines; _deque walks each such
    junction with one scalar corner for each line after the event line,
    reading every other corner from the corners of neighbouring lines
    computed here for the back test.  The deque's turn tests and closing
    step decide emptiness on their own.
    """
    # of half-planes with equal normals only the tightest can bound the set
    first = np.flatnonzero(np.concatenate(([True], np.diff(phi) > ANGLE_EPS)))
    c = np.minimum.reduceat(c, first)
    phi = phi[first]
    if phi.size > 1 and phi[0] + TWO_PI - phi[-1] <= ANGLE_EPS:
        c[0] = min(c[0], c[-1])
        phi, c = phi[:-1], c[:-1]
    ux, uy = np.cos(phi), np.sin(phi)
    rows = (ux, uy, c)
    with np.errstate(all="ignore"):
        # the corner of each pair of neighbouring lines j, j + 1; does line k
        # pop nothing at the back of a deque that ends with lines k - 2, k - 1
        # (for every k >= 2)?
        cx, cy = _corner(*(v[:-1] for v in rows), *(v[1:] for v in rows))
        excess, slack = _excess(cx[:-1], cy[:-1], [v[2:] for v in rows])
        back = excess <= slack
        live = None
        if back.size - np.count_nonzero(back) >= PRUNE_MIN:
            cut = _cuts(excess, slack)
            if np.count_nonzero(cut) >= PRUNE_MIN:
                live, back = _prune(phi, np.stack(rows), back, cut)
                rows = [v[live] for v in rows]
                cx, cy = _corner(*(v[:-1] for v in rows), *(v[1:] for v in rows))
    lines = _deque(phi if live is None else phi[live], *rows, back, cx, cy)
    del cx, cy  # freed for the vertex arrays below: at large T that saves fresh pages
    if lines is None:
        return None
    if live is not None:
        lines = live[lines]
    lx, ly, lc = ux[lines], uy[lines], c[lines]
    vx, vy = _corner(np.roll(lx, 1), np.roll(ly, 1), np.roll(lc, 1), lx, ly, lc)  # lines j-1, j
    return vx + 1j * vy, phi[lines]


def _staircase(X, Y, C, CX, CY, s0, k):
    """Where the deque's back pops end at a junction: (t, i), or None.

    X, Y, C hold the lines (u_x, u_y, c) and CX, CY the corners of
    neighbouring lines, j with j + 1 at CX[j], CY[j], read in place as
    Python floats.  The deque ends with the consecutive lines s0..k - 1
    (s0 <= k - 2), and line k cuts the corner of lines k - 2, k - 1.  Line k
    pops tail lines, then each line after it pops the line before it and
    more tail lines, until a line i + 1 (< T) leaves line i standing: the
    deque then ends with lines s0..t, i, i + 1.  The walk makes the scalar
    loop's back tests in its order, but reads the corner of tail lines
    t - 1, t from the corners of neighbouring lines.  None when the walk
    needs the line before s0 or a line past the last.
    """
    T = len(C)
    t, x = k - 1, k  # the tail's last line and the incoming line
    u, v, b = X[x], Y[x], C[x]
    ab = abs(b)
    while True:
        # pop tail lines while their corner lies outside line x
        while True:
            if t == s0:  # the next test needs the corner of line s0 with the one before it
                return None
            p, q = CX[t - 1], CY[t - 1]
            if not u * p + v * q - b > SIDE_EPS * (abs(p) + abs(q) + ab):
                break
            t -= 1
        i, x = x, x + 1
        if x == T:
            return None
        u, v, b = X[x], Y[x], C[x]
        ab = abs(b)
        p, q = _corner(X[t], Y[t], C[t], X[i], Y[i], C[i])
        if not u * p + v * q - b > SIDE_EPS * (abs(p) + abs(q) + ab):
            return t, i


def _deque(phi, ux, uy, c, back, cx, cy):
    """The lines that the sorted-angle deque keeps of the half-planes, or None
    when a turn of pi or more leaves nothing inside; back[k - 2] says that
    line k does not cut the corner of lines k - 2, k - 1, and (cx[j], cy[j])
    is the corner of lines j and j + 1.

    Lines 0 and 1 and the run after them, up to the first event (a line that
    cuts the corner before it or turns pi or more) or front cut, join first.
    In an event-free set that run is every line: no Python step runs per
    line, and the closing step, the same for every set, reads the few lines
    it tests straight from the arrays; the lines kept come as a slice.

    An event line that meets a deque ending with a run of consecutive lines
    starts a junction, as at the kinks of a lens-shaped Lambda_k: it and each
    line after it pop the line before them and lines of the run, until one
    is left standing.  _staircase walks the junction with the scalar loop's
    back tests, reading lines and corners in place through memoryviews built
    once per call; the front test, against the corner of lines 0 and 1, and the
    turn of pi then run once over the lines the walk took, the front test as
    one array with the run after them.  A set whose events are all such
    junctions keeps its lines as a few runs, joined once: (1, 0, 1), k = 2
    at grid 2048 takes 152 scalar corners, not 607.  Where a walk leaves
    the lines or either test fires, and at a front cut, the scalar loop goes
    on from that line with the deque as it stood, and the lines come as an
    index array.
    """
    T = c.size
    # stops lists turns from k = 2 on; the turn at k = 1 ends the set at once
    if T < 3 or phi[1] - phi[0] >= math.pi:
        return None
    # the scalar tests read lines from the arrays until the loop needs many
    # of them, then from lists of Python floats, which round as float64 does
    X, Y, C, P = ux, uy, c, phi

    def outside(k, i, j):
        """Is the corner of lines i and j outside half-plane k beyond rounding?

        Sets that touch along an edge or at a point have corners on a line
        exactly; normals rounded through phi put them off it either way, and
        a strict test would then drop a line of a set that is not empty."""
        x, y = _corner(X[i], Y[i], C[i], X[j], Y[j], C[j])
        return X[k] * x + Y[k] * y - C[k] > SIDE_EPS * (abs(x) + abs(y) + abs(C[k]))

    def first_cut(lo, hi, x, y):
        """The first k in lo..hi - 1 whose half-plane does not hold the point
        (x, y) up to rounding (nor at NaN, where outside() has to decide),
        else hi."""
        if lo == hi:
            return hi
        excess, slack = _excess(x, y, (ux[lo:hi], uy[lo:hi], c[lo:hi]))
        kept = excess <= slack
        k = int(np.argmin(kept))
        return hi if kept[k] else lo + k

    # lines that cut the corner before them (or meet it at NaN) or turn pi or
    # more from the line before take the scalar step
    stops = (np.flatnonzero(~back | (np.diff(phi)[1:] >= math.pi)) + 2).tolist() + [T]

    # lines 0, 1 and the run after them join up to the first event or front
    # cut; the kept lines are then the runs runs[2r]..runs[2r + 1] - 1 and
    # runs[-1]..k - 1, the deque's back
    front = cx[0], cy[0]
    k = first_cut(2, stops[0], *front)
    runs = [0]
    walk_rows = memoryview(ux), memoryview(uy), memoryview(c), memoryview(cx), memoryview(cy)
    while k < T:
        if stops[bisect_left(stops, k)] != k:  # a front cut
            break
        walk = _staircase(*walk_rows, runs[-1], k)
        if walk is None:
            break
        t, i = walk
        # no turn the scalar loop tests in the walk, from the deque's last
        # line to the next, exceeds that of lines t and i + 1
        if P[i + 1] - P[t] >= math.pi:
            break
        j = first_cut(k, stops[bisect_left(stops, i + 2)], *front)
        if j <= i + 1:
            break
        runs += [t + 1, i]
        k = j
    spans = [range(a, b) for a, b in zip(runs[::2], runs[1::2] + [k])]
    if k == T:
        dq = spans[0] if len(spans) == 1 else np.concatenate([np.arange(r.start, r.stop) for r in spans])
    else:
        X, Y, C, P = ux.tolist(), uy.tolist(), c.tolist(), phi.tolist()
        dq = deque()
        for r in spans:
            dq.extend(r)
        while k < T:
            while len(dq) > 1 and outside(k, dq[-2], dq[-1]):
                dq.pop()
            while len(dq) > 1 and outside(k, dq[0], dq[1]):
                dq.popleft()
            # a turn of pi or more between neighbouring edges leaves nothing inside
            if P[k] - P[dq[-1]] >= math.pi:
                return None
            dq.append(k)
            k += 1
            if dq[-1] == k - 1 and dq[-2] == k - 2:
                j = stops[bisect_left(stops, k)]
                if k < j:  # not an event line, whose back pops may change the front first
                    j = first_cut(k, j, *_corner(X[dq[0]], Y[dq[0]], C[dq[0]], X[dq[1]], Y[dq[1]], C[dq[1]]))
                dq.extend(range(k, j))
                k = j
        dq = np.fromiter(dq, dtype=np.intp, count=len(dq))
    # the closing step trims positions lo..hi - 1 of the deque
    lo, hi = 0, len(dq)
    while hi - lo > 2 and outside(dq[lo], dq[hi - 2], dq[hi - 1]):
        hi -= 1
    while hi - lo > 2 and outside(dq[hi - 1], dq[lo], dq[lo + 1]):
        lo += 1
    if hi - lo < 3 or P[dq[lo]] + TWO_PI - P[dq[hi - 1]] >= math.pi:
        return None
    return slice(lo, hi) if isinstance(dq, range) else dq[lo:hi]


def halfplane_intersection(thetas, bounds, box_halfwidth) -> ConvexRegion:
    """Intersection of the centered square of half-width box_halfwidth with the
    half-planes {z : Re(e^{i thetas[j]} z) <= bounds[j]}, given as two arrays:
    O(T) past the angle sort, which is linear on a theta grid.  The least
    bound, if positive, is the radius of a disk about 0 inside every
    half-plane, which region_from_vertices takes as the loop's inradius.

    Raises InvalidInputError unless thetas and bounds are finite 1-D arrays of
    one length and box_halfwidth is finite and positive."""
    thetas = np.asarray(thetas, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if thetas.ndim != 1 or bounds.shape != thetas.shape:
        raise InvalidInputError(f"thetas and bounds must be 1-D arrays of one length, "
                                f"got shapes {thetas.shape} and {bounds.shape}")
    if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(bounds))):
        raise InvalidInputError("thetas and bounds must be finite")
    r = float(box_halfwidth)
    if not 0 < r < math.inf:
        raise InvalidInputError(f"box half-width must be finite and positive, got {box_halfwidth}")
    phi, c = _by_angle((np.mod(-thetas, TWO_PI), bounds), (_BOX_PHI, np.full(4, r)))
    loop = _intersect_sorted(phi, c)
    return ConvexRegion.empty() if loop is None else region_from_vertices(*loop, float(np.min(c)))


def convex_hull(points):
    """Andrew monotone chain; returns CCW vertices without the closing repeat."""
    pts = sorted(set((p.real, p.imag) for p in points))
    if len(pts) == 1:
        return [complex(*pts[0])]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return [complex(*p) for p in hull]


def _edge_halfplanes(region: ConvexRegion):
    """(phi, c) arrays of a POLYGON's edge half-planes, by increasing angle,
    or of the four half-planes bounding a SEGMENT."""
    pts = np.asarray(region.points, dtype=complex)
    if region.kind == POLYGON:
        phi = np.asarray(region.normals, dtype=float)
    elif region.kind == SEGMENT:
        p, q = pts
        pts = np.array([p, p, q, p])
        phi = np.mod(np.angle(np.array([1j, -1j, 1, -1]) * (q - p)), TWO_PI)
    else:
        raise ValueError(f"no half-plane form for kind {region.kind}")
    return phi, (np.exp(-1j * phi) * pts).real


def _clip_segment(p, q, phi, c):
    """The part of segment [p, q] inside every half-plane u_j . z <= c_j."""
    u = np.exp(1j * phi)
    d = q - p
    vp = (np.conj(u) * p).real - c
    vd = (np.conj(u) * d).real
    # a line along [p, q] gives vd of rounding size, not 0: cos(pi/2) is 6e-17
    parallel = np.abs(vd) <= 1e-12 * abs(d)
    if np.any(vp[parallel] > 1e-12):
        return None
    t = -vp[~parallel] / vd[~parallel]
    rising = vd[~parallel] > 0
    t1 = min(1.0, float(np.min(t[rising], initial=math.inf)))
    t0 = max(0.0, float(np.max(t[~rising], initial=-math.inf)))
    if t0 > t1 + 1e-15:
        return None
    return p + t0 * d, p + t1 * d


def intersect_regions(a: ConvexRegion, b: ConvexRegion) -> ConvexRegion:
    """Intersection of two convex regions; a POINT meets a region that lies
    within Euclidean distance 1e-12 of it."""
    if a.kind == EMPTY or b.kind == EMPTY:
        return ConvexRegion.empty()
    if b.kind == POINT:
        return b if region_contains_region(a, b, tol=1e-12) else ConvexRegion.empty()
    if a.kind == POINT:
        return a if region_contains_region(b, a, tol=1e-12) else ConvexRegion.empty()
    if a.kind == SEGMENT:
        res = _clip_segment(a.points[0], a.points[1], *_edge_halfplanes(b))
        if res is None:
            return ConvexRegion.empty()
        p, q = res
        return ConvexRegion(POINT, ((p + q) / 2,)) if abs(q - p) < WIDTH_EPS else ConvexRegion(SEGMENT, res)
    if b.kind == SEGMENT:
        return intersect_regions(b, a)
    loop = _intersect_sorted(*_by_angle(_edge_halfplanes(a), _edge_halfplanes(b)))
    return ConvexRegion.empty() if loop is None else region_from_vertices(*loop)


def _support_run(region: ConvexRegion):
    """(phi, w) of a nonempty region: its increasing outward edge normal
    angles phi and the vertex w[j] that supports every direction from phi[j]
    to phi[j + 1].  A POLYGON keeps its normals; a SEGMENT p, q is the loop
    p, q, p with normals -i (q - p) and i (q - p); a POINT has one
    full-circle arc.  O(V)."""
    z = np.asarray(region.points, dtype=complex)
    if region.kind == POINT:
        return np.zeros(1), z
    if region.kind == SEGMENT:
        phi = np.mod(np.angle(np.array([-1j, 1j]) * (z[1] - z[0])), TWO_PI)
        if phi[1] < phi[0]:
            z, phi = z[::-1], phi[::-1]
    else:
        phi = np.asarray(region.normals, dtype=float)
    return phi, np.roll(z, -1)


def _largest_gap(a: ConvexRegion, b: ConvexRegion, symmetric: bool) -> float:
    """max over unit u of h_a(u) - h_b(u) (of |h_a(u) - h_b(u)| if symmetric),
    h the support function, in O(N + E): the stable sort merges the two runs.

    On each arc between merged breakpoints the support vertices p and q are
    fixed, and Re((p - q) e^{-i phi}) peaks at |p - q| if the arc holds
    arg(p - q), else at an end of the arc.
    """
    phi_a, w_a = _support_run(a)
    phi_b, w_b = _support_run(b)
    order = np.argsort(np.concatenate([phi_a, phi_b]), kind="stable")
    from_a = order < phi_a.size
    d = w_a[(np.cumsum(from_a) - 1) % phi_a.size] - w_b[(np.cumsum(~from_a) - 1) % phi_b.size]
    phi = np.concatenate([phi_a, phi_b])[order]
    u = np.exp(1j * phi)
    length = np.diff(phi, append=phi[0] + TWO_PI)
    # an arc of zero length pairs vertices of different directions; its ends
    # are its neighbours' ends, so it is left out
    arc = length > 0
    ends = np.stack([np.conj(u[arc]) * d[arc], np.conj(np.roll(u, -1)[arc]) * d[arc]]).real
    d, phi, length = d[arc], phi[arc], length[arc]
    best = -math.inf
    for sign in (1, -1) if symmetric else (1,):
        peak = np.mod(np.angle(sign * d) - phi, TWO_PI) <= length
        best = max(best, float(np.max(np.where(peak, np.abs(d), np.max(sign * ends, axis=0)))))
    return best


def hausdorff_distance(a: ConvexRegion, b: ConvexRegion) -> float:
    """Symmetric Hausdorff distance between two convex regions, exact and
    O(N + E): max over unit u of |h_a(u) - h_b(u)|, h the support function.
    EMPTY vs EMPTY is 0; EMPTY vs anything else is +inf.
    """
    if EMPTY in (a.kind, b.kind):
        return 0.0 if a.kind == b.kind else math.inf
    return _largest_gap(a, b, symmetric=True)


def region_contains_region(outer: ConvexRegion, inner: ConvexRegion, tol=1e-8) -> bool:
    """Is the directed Hausdorff distance max over u of h_inner - h_outer <= tol?"""
    if EMPTY in (inner.kind, outer.kind):
        return inner.kind == EMPTY
    return _largest_gap(inner, outer, symmetric=False) <= tol

