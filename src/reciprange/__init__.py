"""Kippenhahn curves and rank-k numerical ranges of reciprocal tridiagonal matrices.

A reciprocal matrix is tridiagonal with zero main diagonal and off-diagonal
pairs multiplying to one.  This package classifies when its boundary
generating curve splits into ellipses (n <= 6), extracts all ellipse
parameters, and computes rank-k numerical ranges both analytically and by
numeric half-plane intersection, cross-validating every closed form against
eigenvalue-based oracles.
"""

from .ellipses import (
    ALL_CONCENTRIC,
    DEGENERATE_SPECTRUM,
    DISPLACED_PAIR,
    MIXED_NONE,
    ClassificationReport,
    EllipseComponent,
    classify,
)
from .errors import InvalidInputError, UnsupportedDimensionError
from .geometry import ConvexRegion
from .kippenhahn import (
    closed_form_poly,
    curve_components,
    detect_multiple_tangents,
    determinant_poly_eval,
    eigencurves,
    envelope_points,
)
from .matrices import (
    ReciprocalMatrix,
    XiParameters,
    build_from_superdiagonal,
    exact_spectrum,
    flip,
    matrix_from_xi,
)
from .ranges import rank_k_analytic, rank_k_numeric, region_distance

__all__ = [
    "ALL_CONCENTRIC",
    "DEGENERATE_SPECTRUM",
    "DISPLACED_PAIR",
    "MIXED_NONE",
    "ClassificationReport",
    "ConvexRegion",
    "EllipseComponent",
    "InvalidInputError",
    "ReciprocalMatrix",
    "UnsupportedDimensionError",
    "XiParameters",
    "build_from_superdiagonal",
    "classify",
    "closed_form_poly",
    "curve_components",
    "detect_multiple_tangents",
    "determinant_poly_eval",
    "eigencurves",
    "envelope_points",
    "exact_spectrum",
    "flip",
    "matrix_from_xi",
    "rank_k_analytic",
    "rank_k_numeric",
    "region_distance",
]

__version__ = "0.1.0"
