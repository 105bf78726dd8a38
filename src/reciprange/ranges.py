"""Rank-k numerical ranges as intersections of supporting half-planes.

Lambda_k(A) is the intersection over theta of the half-planes
{Re(e^{i theta} z) <= lambda_k(theta)}, lambda_k the k-th largest eigenvalue of
Re(e^{i theta} A) (Li-Sze).  ``rank_k_numeric`` takes the bounds from the
eigenvalues; ``rank_k_analytic`` takes them, for a positive classification,
from ``pencil_values``, the closed-form eigenvalues its ellipse components
imply.  Both clip the k-th largest bound on one theta grid through the one
kernel ``halfplane_intersection``, so neither needs the criterion table.
For 2k >= n + 1 the spectrum's symmetry about 0 mostly decides Lambda_k
without the clip: by the verdict in ``rank_k_analytic``; in
``rank_k_numeric`` the solve's own values show the point {0}.
"""

from __future__ import annotations

import functools

import numpy as np

from .ellipses import ALL_CONCENTRIC, DISPLACED_PAIR, ClassificationReport
from .errors import InvalidInputError
from .geometry import POINT, ConvexRegion, halfplane_intersection, hausdorff_distance
from .kippenhahn import DEFAULT_GRID, _theta_array, eigencurves
from .matrices import as_xi, matrix_from_xi

BOUND_SLACK = 1e-12


def _thetas(n, k, theta_grid):
    """The grid's thetas, once k is in 1..n and the grid has the 8 points a
    clip needs: the checks both rank_k functions make at every k."""
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in 1..{n}, got {k}")
    thetas = _theta_array(theta_grid)
    if thetas.size < 8:
        raise InvalidInputError("theta grid needs at least 8 points")
    return thetas


@functools.lru_cache(maxsize=1)
def _lambdas(xi, grid):
    """The read-only eigenvalues of ``eigencurves`` for the xi tuple on an
    integer grid size, or on an explicit grid given as its theta bytes."""
    lam = eigencurves(xi, grid if isinstance(grid, int) else np.frombuffer(grid))[1]
    lam.flags.writeable = False
    return lam


def _slack(bounds) -> float:
    """The margin _clip adds to every bound: BOUND_SLACK relative to the
    largest, or absolute below 1."""
    return BOUND_SLACK * max(1.0, float(np.max(np.abs(bounds))))


def _clip(xi, thetas, bounds) -> ConvexRegion:
    """The half-planes {Re(e^{i theta} z) <= bound} over the grid, clipped
    from a box exceeding the numerical radius of the canonical representative
    of ``xi`` (whose range every matrix with these xi shares).  The slack
    absorbs eigensolver noise so degenerate (segment/point) intersections
    keep their exact extent.  Both callers check the grid first (``_thetas``)."""
    entries = matrix_from_xi(xi).superdiag
    r = 2 + max(abs(a) for a in entries) + max(1 / abs(a) for a in entries)
    return halfplane_intersection(thetas, bounds + _slack(bounds), r)


def rank_k_numeric(matrix, k, theta_grid=DEFAULT_GRID) -> ConvexRegion:
    """Lambda_k as the intersection of the supporting half-planes
    {Re(e^{i theta} z) <= lambda_k(theta)} over the grid, clipped from a box.

    ``matrix`` is a ReciprocalMatrix, an XiParameters or a sequence of xi
    values; only its xi enter.  An even integer grid of m points takes
    floor(m/4) + 1 eigen solves (see ``eigencurves``), and the thetas and
    bounds go to ``halfplane_intersection`` as arrays.

    The spectrum of Re(e^{i theta} A) is symmetric about 0, so for odd n
    every lambda_{(n+1)/2} is 0 up to rounding.  On an integer grid, whose
    normals go round the circle in steps of at most pi/4, bounds all within
    the clip's slack of 0 give the POINT {0} (exactly ``0j``) without the
    clip: every half-plane the clip would cut holds 0, and its line passes
    within twice the slack of it.  Every other case is clipped, an explicit
    grid's point and every EMPTY range (2k > n + 1) included.

    Calls on the same xi and grid share one read-only solve, held by a
    one-entry memo, so Lambda_1, Lambda_2, ... of one matrix solve once."""
    xi = as_xi(matrix)
    thetas = _thetas(xi.n, k, theta_grid)
    sized = np.isscalar(theta_grid)
    bounds = _lambdas(xi.xi, thetas.size if sized else thetas.tobytes())[:, k - 1]
    if sized and np.max(np.abs(bounds)) <= _slack(bounds):
        return ConvexRegion(POINT, (0j,))
    return _clip(xi, thetas, bounds)


def pencil_values(report: ClassificationReport, thetas) -> np.ndarray:
    """The eigenvalues of Re(e^{i theta} A) that a positive report's ellipses
    imply: p cos theta +- sqrt(a^2 cos^2 theta + c^2 sin^2 theta) for each
    component (center p, half-axes a, c), plus 0 for odd n.  Returns shape
    (T, n), each row largest first, as ``eigencurves`` orders its rows."""
    cos, sin = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    cols = [np.zeros_like(cos)] * (report.n % 2)
    for e in report.ellipses:
        root = np.sqrt((e.major_half_axis * cos) ** 2 + (e.minor_half_axis * sin) ** 2)
        cols += [e.center * cos + root, e.center * cos - root]
    return np.sort(np.hstack(cols), axis=1)[:, ::-1]


def rank_k_analytic(report: ClassificationReport, k, theta_grid=DEFAULT_GRID) -> ConvexRegion:
    """Lambda_k of a positive classification verdict, by the same Li-Sze rule
    as ``rank_k_numeric``: the half-planes bounded by the k-th largest pencil
    value (see ``pencil_values``), through the same kernel and grid.

    The spectrum of Re(e^{i theta} A) is symmetric about 0, so whatever the
    verdict, odd n gives Lambda_{(n+1)/2} = {0} and 2k > n + 1 gives EMPTY;
    both are returned without clipping, once k, the verdict and the grid
    have passed the checks every k makes.
    """
    n = report.n
    thetas = _thetas(n, k, theta_grid)
    if report.verdict not in (ALL_CONCENTRIC, DISPLACED_PAIR):
        raise InvalidInputError(f"no analytic range for verdict {report.verdict}")
    if 2 * k == n + 1:
        return ConvexRegion(POINT, (0j,))
    if 2 * k > n + 1:
        return ConvexRegion.empty()
    return _clip(report.xi, thetas, pencil_values(report, thetas)[:, k - 1])


def region_distance(a: ConvexRegion, b: ConvexRegion) -> float:
    """Symmetric Hausdorff distance; EMPTY vs EMPTY is 0, EMPTY vs other +inf."""
    return hausdorff_distance(a, b)
