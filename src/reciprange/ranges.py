"""Rank-k numerical ranges as intersections of supporting half-planes.

Lambda_k(A) is the intersection over theta of the half-planes
{Re(e^{i theta} z) <= lambda_k(theta)}, lambda_k the k-th largest eigenvalue of
Re(e^{i theta} A) (Li-Sze).  ``rank_k_numeric`` takes the bounds from the
eigenvalues; ``rank_k_analytic`` takes them, for a positive classification,
from the closed-form support functions of the ellipse components, ordered by
the verdict (and, for n = 6 displaced pairs, by the report's table row).
Both clip one theta grid through the one kernel ``halfplane_intersection``.
"""

from __future__ import annotations

import numpy as np

from .ellipses import ALL_CONCENTRIC, DISPLACED_PAIR, ClassificationReport
from .errors import InvalidInputError
from .geometry import POINT, ConvexRegion, halfplane_intersection, hausdorff_distance
from .kippenhahn import DEFAULT_GRID, _theta_array, eigencurves
from .matrices import as_xi, matrix_from_xi

BOUND_SLACK = 1e-12


def _clip(xi, thetas, bounds) -> ConvexRegion:
    """The half-planes {Re(e^{i theta} z) <= bound} over the grid, clipped
    from a box exceeding the numerical radius of the canonical representative
    of ``xi`` (whose range every matrix with these xi shares).  The slack
    absorbs eigensolver noise so degenerate (segment/point) intersections
    keep their exact extent."""
    if thetas.size < 8:
        raise InvalidInputError("theta grid needs at least 8 points")
    entries = matrix_from_xi(xi).superdiag
    r = 2 + max(abs(a) for a in entries) + max(1 / abs(a) for a in entries)
    slack = BOUND_SLACK * max(1.0, float(np.max(np.abs(bounds))))
    return halfplane_intersection(thetas, bounds + slack, r)


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
    return _clip(xi, thetas, lam[:, k - 1])


def _support(e, thetas):
    """h_E(theta) = p cos theta + sqrt(a^2 cos^2 theta + c^2 sin^2 theta), the
    largest Re(e^{i theta} z) over the ellipse E (center p, half-axes a, c)."""
    cos, sin = np.cos(thetas), np.sin(thetas)
    return e.center * cos + np.sqrt((e.major_half_axis * cos) ** 2 + (e.minor_half_axis * sin) ** 2)


def rank_k_analytic(report: ClassificationReport, k, theta_grid=DEFAULT_GRID) -> ConvexRegion:
    """Lambda_k assembled from a positive classification verdict.

    Concentric verdicts: the disk of the k-th nested ellipse.  Displaced pairs:
    the hull of E and -E for the widest set, their lens for the next, with the
    central component (n = 6) slotted by the table row: first for row ii
    (ratio 2cos(pi/7)), last for row vi.  For odd n the origin supplies
    Lambda_{(n+1)/2}.  Each disk, hull or lens is the half-plane intersection
    of a closed-form support function on the theta grid: h_E for a disk,
    max(h_E, h_-E) for the hull, min(h_E, h_-E) for the lens, through the same
    kernel and grid as ``rank_k_numeric``.
    """
    n = report.n
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in 1..{n}, got {k}")
    if report.verdict not in (ALL_CONCENTRIC, DISPLACED_PAIR):
        raise InvalidInputError(f"no analytic range for verdict {report.verdict}")
    if k > (n + 1) / 2:
        return ConvexRegion.empty()
    thetas = _theta_array(theta_grid)

    def disk(e):
        return _clip(report.xi, thetas, _support(e, thetas))

    if report.verdict == ALL_CONCENTRIC:
        ells = report.ellipses  # outermost first
        if k <= len(ells):
            return disk(ells[k - 1])
        if n % 2 == 1 and k == (n + 1) // 2:
            return ConvexRegion(POINT, (0j,))
        return ConvexRegion.empty()

    # displaced pair: the hull of E and -E, then their lens.  For n = 6 the
    # central component comes first (table row ii) or last (row vi).
    e_plus, e_minus = report.displaced() if n == 6 else report.ellipses
    if n == 6:
        central_outer = report.table_row == "ii"
        if k == (1 if central_outer else 3):
            return disk(report.central())
        if central_outer:
            k -= 1
    if k in (1, 2):
        pair = (_support(e_plus, thetas), _support(e_minus, thetas))
        return _clip(report.xi, thetas, np.maximum(*pair) if k == 1 else np.minimum(*pair))
    return ConvexRegion(POINT, (0j,))  # n = 5, k = 3


def region_distance(a: ConvexRegion, b: ConvexRegion) -> float:
    """Symmetric Hausdorff distance; EMPTY vs EMPTY is 0, EMPTY vs other +inf."""
    return hausdorff_distance(a, b)
