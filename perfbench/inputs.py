"""Seeded inputs: xi draws on every criterion family, off them, and at random.

Each family draw lies on the variety of one n = 4, 5, 6 criterion, so the
classification is positive; ``push_off`` moves a draw a small relative step
off its variety.  Dyadic draws are exact in binary, so exact-mode
classification sees the same rational relations the float draw satisfies.
"""

from __future__ import annotations

import math

PHI = (1 + math.sqrt(5)) / 2
SQRT3 = math.sqrt(3)
TWO_COS_2PI7 = 2 * math.cos(2 * math.pi / 7)
K_OUTER = 2 * math.cos(math.pi / 7)  # the de2/de3 ratio that puts the central ellipse outermost
K_INNER = 2 * math.cos(3 * math.pi / 7)

#: the paper's parameter sets (caption-grade values for FIG3-FIG5)
FIG1 = (0.5, 0.0, 0.5, 0.0)
FIG2 = (1 + SQRT3 / 2, 0.0, 1.0, SQRT3 / 2)
FIG3 = (0.801938, 1.0, 0.0, 1.0, 0.801938)
FIG4 = (1.44504, 1.0, 1.44504, 0.0, 3.24698)
FIG5 = (2.80194, 1.0, 2.80194, 0.0, 1.55496)
ONES3 = (1.0, 1.0, 1.0)
NONCON4 = (1.0, 0.0, 1.0)
ONES5 = (1.0, 1.0, 1.0, 1.0, 1.0)

FAMILIES = (
    "con4-1", "con4-2", "noncon4", "con5-1", "con5-2", "noncon5-a", "noncon5-b",
    "3conel", "de1", "de2-outer", "de2-inner", "de3-outer", "de3-inner",
)

#: families whose defining relations are rational, so dyadic draws satisfy them exactly
RATIONAL_FAMILIES = ("noncon4", "con5-1", "con5-2")


def _uniform(rng, lo, hi, dyadic):
    v = float(rng.uniform(lo, hi))
    return round(v * 64) / 64 if dyadic else v


def family_draw(family, rng, dyadic=False):
    """One xi vector on the variety of ``family``."""
    def u(lo, hi):
        return _uniform(rng, lo, hi, dyadic)

    if family in ("con4-1", "con4-2"):
        big = u(0.5, 2.0)
        small = u(0.1, 0.9 * big)
        xi = (big, PHI * big - small / PHI, small)
        return xi if family == "con4-1" else xi[::-1]
    if family == "noncon4":
        c = u(0.2, 2.0)
        return (c, 0.0, c)
    if family == "con5-1":
        m, a = u(0.2, 2.0), u(0.2, 1.0)
        return (m, a, a + u(0.2, 1.0), m)
    if family == "con5-2":
        x1, x4, x2 = u(1.0, 2.0), u(0.1, 0.9), u(0.1, 2.0)
        return (x1, x2, x2 + (x1 - x4) / 2, x4)
    if family in ("noncon5-a", "noncon5-b"):
        t = u(0.2, 2.0)
        xi = (SQRT3 / 2 * t + t, 0.0, t, SQRT3 / 2 * t)
        return xi if family == "noncon5-a" else xi[::-1]
    if family == "3conel":
        from reciprange.concentric6 import find_concentric_instance

        xi, _ = find_concentric_instance(seed=int(rng.integers(2**31)))
        return tuple(xi)
    if family == "de1":
        b = u(0.2, 2.0)
        return (b, TWO_COS_2PI7 * b, 0.0, TWO_COS_2PI7 * b, b)
    k = K_OUTER if family.endswith("outer") else K_INNER
    x = u(0.2, 2.0)
    if family.startswith("de2"):
        return (x, 0.0, k * x, (k - 1) ** 2 * x, k * x)
    return (k * x, (k - 1) ** 2 * x, k * x, 0.0, x)


def push_off(xi, rng, dyadic=False):
    """Move one coordinate off the variety by 0.1-1 % of the vector's scale (1/64 if dyadic)."""
    xi = list(xi)
    i = int(rng.integers(len(xi)))
    xi[i] += 1 / 64 if dyadic else float(rng.uniform(1e-3, 1e-2)) * max(1.0, max(xi))
    return tuple(xi)


def uniform_draw(n, rng, dyadic=False):
    """xi uniform on [0, 2.5)^(n-1); dyadic draws sit on a 1/1024 grid."""
    vals = rng.uniform(0.0, 2.5, n - 1)
    if dyadic:
        return tuple(round(v * 1024) / 1024 for v in vals)
    return tuple(float(v) for v in vals)


def random_phases(n, rng):
    return tuple(float(p) for p in rng.uniform(0.0, 2 * math.pi, n - 1))
