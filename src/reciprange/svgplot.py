"""Deterministic SVG rendering of curves and range regions.

Fixed 800x600 viewport, auto-fit with a 10% margin, fixed-precision number
formatting: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 800, 600
MARGIN = 0.10

CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


#: every pixel coordinate is printed with this format
_NUM = "%.4f"


def _fmt(v: float) -> str:
    return _NUM % v


class _Frame:
    def __init__(self, points):
        z = np.asarray(points, dtype=complex)
        if z.size == 0:
            z = np.zeros(1, dtype=complex)
        x0, x1 = float(z.real.min()), float(z.real.max())
        y0, y1 = float(z.imag.min()), float(z.imag.max())
        span = max(x1 - x0, y1 - y0, 1e-6)
        pad = MARGIN * span
        x0, x1 = x0 - pad, x1 + pad
        y0, y1 = y0 - pad, y1 + pad
        sx = WIDTH / (x1 - x0)
        sy = HEIGHT / (y1 - y0)
        self.scale = min(sx, sy)
        self.cx = (x0 + x1) / 2
        self.cy = (y0 + y1) / 2

    def to_px(self, z):
        """Pixel coordinates of a complex scalar or array (elementwise, same rounding)."""
        x = WIDTH / 2 + (z.real - self.cx) * self.scale
        y = HEIGHT / 2 - (z.imag - self.cy) * self.scale
        return x, y

    def coords(self, pts):
        """The "x,y x,y ..." attribute text of a point array, filled in by one format."""
        x, y = self.to_px(np.asarray(pts, dtype=complex))
        return " ".join([f"{_NUM},{_NUM}"] * x.size) % tuple(np.column_stack((x, y)).ravel().tolist())


def _polygon(frame, pts, color):
    return f'<polygon points="{frame.coords(pts)}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def _axes(frame):
    half_w = WIDTH / (2 * frame.scale)
    half_h = HEIGHT / (2 * frame.scale)
    out = []
    for a, b in ((complex(frame.cx - half_w, 0), complex(frame.cx + half_w, 0)),
                 (complex(0, frame.cy - half_h), complex(0, frame.cy + half_h))):
        (x1, y1), (x2, y2) = frame.to_px(a), frame.to_px(b)
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#999999" stroke-width="0.8"/>'
        )
    return out


def _marker(frame, z, color, r=3.0):
    x, y = frame.to_px(z)
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{color}"/>'


def _document(body):
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    return head + "\n" + "\n".join(body) + "\n</svg>\n"


def render_curve(components, foci=(), region=None) -> str:
    """Curve components as polylines with axes and focus markers.

    ``region`` optionally overlays a shaded convex region (a ConvexRegion).
    """
    pts = [c["points"] for c in components] + [np.asarray(foci, dtype=complex)]
    if region is not None:
        pts.append(np.asarray(region.points, dtype=complex))
    frame = _Frame(np.concatenate(pts))
    body = []
    body.extend(_axes(frame))
    if region is not None and region.points:
        if region.kind == "POLYGON":
            coords = frame.coords(region.points)
            body.append(f'<polygon points="{coords}" fill="#ffbb78" fill-opacity="0.55" stroke="#ff7f0e" stroke-width="1.0"/>')
        elif region.kind == "SEGMENT":
            (x1, y1), (x2, y2) = (frame.to_px(p) for p in region.points)
            body.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="#ff7f0e" stroke-width="3.0"/>'
            )
        elif region.kind == "POINT":
            body.append(_marker(frame, region.points[0], "#ff7f0e", 4.0))
    ci = 0
    for comp in components:
        if comp["kind"] == "point":
            body.append(_marker(frame, comp["points"][0], "#000000", 2.5))
            continue
        body.append(_polygon(frame, comp["points"], CURVE_COLORS[ci % len(CURVE_COLORS)]))
        ci += 1
    for f in foci:
        body.append(_marker(frame, complex(f), "#444444", 2.0))
    return _document(body)
