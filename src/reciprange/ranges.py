"""Rank-k numerical ranges: half-plane intersection and analytic construction.

Lambda_k(A) is the intersection over theta of the half-planes bounded by the
k-th largest eigenvalue of Re(e^{i theta} A); for classified curves it is also
assembled directly from the ellipse components.
"""

from __future__ import annotations

import math

import numpy as np

from .ellipses import ALL_CONCENTRIC, DISPLACED_PAIR, ClassificationReport
from .errors import InvalidInputError
from .geometry import (
    POINT,
    ConvexRegion,
    convex_hull,
    ellipse_region,
    halfplane_intersection,
    hausdorff_distance,
    intersect_regions,
    region_from_vertices,
)
from .kippenhahn import DEFAULT_GRID, eigencurves
from .matrices import as_xi, matrix_from_xi

BOUND_SLACK = 1e-12


def rank_k_numeric(matrix, k, theta_grid=DEFAULT_GRID) -> ConvexRegion:
    """Lambda_k as the intersection of a bounding box with the supporting
    half-planes {Re(e^{i theta} z) <= lambda_k(theta)} over the grid.

    ``matrix`` is a ReciprocalMatrix, an XiParameters or a sequence of xi
    values; only its xi enter.  An even integer grid of m points takes
    floor(m/4) + 1 eigen solves (see ``eigencurves``), and the thetas and
    bounds go to ``halfplane_intersection`` as arrays."""
    xi = as_xi(matrix)
    n = xi.n
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in 1..{n}, got {k}")
    thetas, lam = eigencurves(xi, theta_grid)
    if thetas.size < 8:
        raise InvalidInputError("theta grid needs at least 8 points")
    bounds = lam[:, k - 1]
    # box exceeding the numerical radius (of the canonical representative,
    # whose range every matrix with these xi shares); slack absorbs eigensolver
    # noise so degenerate (segment/point) intersections keep their exact extent
    entries = matrix_from_xi(xi).superdiag
    r = 2 + max(abs(a) for a in entries) + max(1 / abs(a) for a in entries)
    slack = BOUND_SLACK * max(1.0, float(np.max(np.abs(bounds))))
    return halfplane_intersection(thetas, bounds + slack, r)


def _disk(e, m):
    return ellipse_region(e.center, e.half_focal, e.minor_half_axis, m)


def _hull_two(e1, e2, m):
    pts = list(_disk(e1, m).points) + list(_disk(e2, m).points)
    return region_from_vertices(convex_hull(pts))


def rank_k_analytic(report: ClassificationReport, k, boundary_points=1024) -> ConvexRegion:
    """Lambda_k assembled from a positive classification verdict.

    Concentric verdicts: the disk of the k-th nested ellipse.  Displaced pairs:
    the hull of E and -E for the widest set, their lens for the next, with the
    central component (n = 6) slotted by the criterion's k-value; for odd n the
    origin supplies Lambda_{(n+1)/2}.
    """
    n = report.n
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in 1..{n}, got {k}")
    if report.verdict not in (ALL_CONCENTRIC, DISPLACED_PAIR):
        raise InvalidInputError(f"no analytic range for verdict {report.verdict}")
    if k > (n + 1) / 2:
        return ConvexRegion.empty()
    m = int(boundary_points)

    if report.verdict == ALL_CONCENTRIC:
        ells = report.ellipses  # outermost first
        if k <= len(ells):
            return _disk(ells[k - 1], m)
        if n % 2 == 1 and k == (n + 1) // 2:
            return ConvexRegion(POINT, (0j,))
        return ConvexRegion.empty()

    # displaced pair: the hull of E and -E, then their lens.  For n = 6 the
    # central component comes first or last by the criterion's k-value.
    e_plus, e_minus = report.displaced() if n == 6 else report.ellipses
    if n == 6:
        central_outer = report.k is not None and abs(report.k - 2 * math.cos(math.pi / 7)) < 1e-6
        if k == (1 if central_outer else 3):
            return _disk(report.central(), m)
        if central_outer:
            k -= 1
    if k == 1:
        return _hull_two(e_plus, e_minus, m)
    if k == 2:
        return intersect_regions(_disk(e_plus, m), _disk(e_minus, m))
    return ConvexRegion(POINT, (0j,))  # n = 5, k = 3


def region_distance(a: ConvexRegion, b: ConvexRegion) -> float:
    """Symmetric Hausdorff distance; EMPTY vs EMPTY is 0, EMPTY vs other +inf."""
    return hausdorff_distance(a, b)
