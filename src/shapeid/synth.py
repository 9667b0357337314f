"""Deterministic rasterizer for the eight reference silhouettes.

A pixel is foreground exactly when its center (integer coordinates) lies
inside the closed continuous region; there is no anti-aliasing, so pixel
counts track the analytic areas and renders are reproducible bit for bit.
Every shape is described once, by ``_parts``, as a convex polygon plus
axis-aligned half-ellipse caps: a polygonal kind is its polygon alone, a
cylinder a rectangle with caps on top and bottom, a cone a triangle with
a cap under its base edge, and a hemisphere one cap with no polygon.
Rendering, the bounding box and the analytic area are all read from that
description, and the predicates are evaluated only on the pixels inside
the bounding box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import ShapeClass

__all__ = ["ShapeSpec", "analytic_area", "corpus", "polygon_vertices", "render"]

#: The parameters each kind is built from, in ``ShapeSpec`` field names.
_PARAMETERS = {
    ShapeClass.RECTANGLE: ("width", "height"),
    ShapeClass.CYLINDER: ("width", "height"),
    ShapeClass.SQUARE: ("side",),
    ShapeClass.RHOMBUS: ("side", "diagonal_ratio"),
    ShapeClass.KITE: ("diag_long", "diag_short", "cross_fraction"),
    ShapeClass.TRIANGLE: ("base", "height"),
    ShapeClass.CONE: ("base", "height"),
    ShapeClass.HEMISPHERE: ("radius",),
}
#: The largest bulge of each bulged kind, as a fraction of its height.
_BULGE_LIMITS = {ShapeClass.CYLINDER: 0.15, ShapeClass.CONE: 0.25}


@dataclass(frozen=True)
class ShapeSpec:
    """Geometry of one filled shape; build via the per-kind classmethods.

    ``center`` is the bounding-box center except for the hemisphere, where
    it is the disk center (the flat edge).  ``rotation`` is in degrees and
    applies to quadrilaterals and the triangle only; ``bulge`` is the cap
    half-height of cylinder and cone.
    """

    kind: ShapeClass
    center: tuple
    width: float | None = None
    height: float | None = None
    side: float | None = None
    diagonal_ratio: float | None = None
    diag_long: float | None = None
    diag_short: float | None = None
    cross_fraction: float | None = None
    base: float | None = None
    radius: float | None = None
    bulge: float = 0.0
    rotation: float = 0.0
    fg: int = 255
    bg: int = 0

    @classmethod
    def rectangle(cls, center, width, height, rotation=0.0, **kw):
        return cls(ShapeClass.RECTANGLE, center, width=width, height=height,
                   rotation=rotation, **kw)

    @classmethod
    def square(cls, center, side, rotation=0.0, **kw):
        return cls(ShapeClass.SQUARE, center, side=side, rotation=rotation, **kw)

    @classmethod
    def rhombus(cls, center, side, diagonal_ratio, rotation=0.0, **kw):
        return cls(ShapeClass.RHOMBUS, center, side=side,
                   diagonal_ratio=diagonal_ratio, rotation=rotation, **kw)

    @classmethod
    def kite(cls, center, diag_long, diag_short, cross_fraction, rotation=0.0, **kw):
        return cls(ShapeClass.KITE, center, diag_long=diag_long,
                   diag_short=diag_short, cross_fraction=cross_fraction,
                   rotation=rotation, **kw)

    @classmethod
    def triangle(cls, center, base, height, rotation=0.0, **kw):
        return cls(ShapeClass.TRIANGLE, center, base=base, height=height,
                   rotation=rotation, **kw)

    @classmethod
    def hemisphere(cls, center, radius, **kw):
        return cls(ShapeClass.HEMISPHERE, center, radius=radius, **kw)

    @classmethod
    def cylinder(cls, center, width, height, bulge, **kw):
        return cls(ShapeClass.CYLINDER, center, width=width, height=height,
                   bulge=bulge, **kw)

    @classmethod
    def cone(cls, center, base, height, bulge, **kw):
        return cls(ShapeClass.CONE, center, base=base, height=height,
                   bulge=bulge, **kw)


def _dimensions(spec: ShapeSpec) -> dict:
    names = _PARAMETERS.get(spec.kind)
    if names is None:
        raise ValueError(f"cannot render shape kind {spec.kind!r}")
    dims = {name: getattr(spec, name) for name in names}
    for name, value in dims.items():
        if value is None:
            raise ValueError(f"{spec.kind.value} requires parameter {name!r}")
    return dims


def _rotated(local: np.ndarray, spec: ShapeSpec) -> np.ndarray:
    theta = math.radians(spec.rotation)
    c, s = math.cos(theta), math.sin(theta)
    rot = local @ np.array([[c, s], [-s, c]])
    return rot + np.asarray(spec.center, dtype=float)


def _parts(spec: ShapeSpec) -> tuple:
    """The shape as a convex polygon and a list of half-ellipse caps.

    The polygon is as ``polygon_vertices`` gives it, or ``None`` for the
    hemisphere.  A cap ``(cx, edge_y, rx, ry, below)`` is the half of the
    ellipse with center ``(cx, edge_y)`` and semi-axes ``rx``, ``ry`` on one
    side of its flat edge at ``edge_y``: larger y if ``below``, else smaller.
    Caps are axis-aligned, so a shape with caps is never rotated.
    """
    kind, dims, bulge = spec.kind, _dimensions(spec), spec.bulge
    cx, cy = spec.center
    caps = []
    if kind is ShapeClass.HEMISPHERE:
        r = dims["radius"]
        return None, [(cx, cy, r, r, True)]
    if kind in (ShapeClass.RECTANGLE, ShapeClass.SQUARE, ShapeClass.CYLINDER):
        w = dims.get("width", dims.get("side"))
        h = dims.get("height", dims.get("side"))
        local = [(-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2)]
        if kind is ShapeClass.CYLINDER:
            caps = [(cx, cy - h / 2, w / 2, bulge, False),
                    (cx, cy + h / 2, w / 2, bulge, True)]
    elif kind is ShapeClass.RHOMBUS:
        q = dims["diagonal_ratio"]
        if not 0 < q <= 1:
            raise ValueError(f"diagonal_ratio must be in (0, 1], got {q}")
        d1 = 2 * dims["side"] / math.hypot(1, q)
        d2 = q * d1
        local = [(-d1 / 2, 0), (0, -d2 / 2), (d1 / 2, 0), (0, d2 / 2)]
    elif kind is ShapeClass.KITE:
        d1, d2, f = dims["diag_long"], dims["diag_short"], dims["cross_fraction"]
        if not 0 < f < 1:
            raise ValueError(f"cross_fraction must be in (0, 1), got {f}")
        cross_x = -d1 / 2 + f * d1
        local = [(-d1 / 2, 0), (cross_x, -d2 / 2), (d1 / 2, 0), (cross_x, d2 / 2)]
    else:
        b, h = dims["base"], dims["height"]
        # The cone's bounding box includes its cap, so the triangle part
        # sits `bulge/2` above the box center.
        shift = bulge / 2 if kind is ShapeClass.CONE else 0.0
        base_y = h / 2 - shift
        local = [(0, -h / 2 - shift), (b / 2, base_y), (-b / 2, base_y)]
        if kind is ShapeClass.CONE:
            caps = [(cx, cy + base_y, b / 2, bulge, True)]
    return _rotated(np.array(local), spec), caps


def polygon_vertices(spec: ShapeSpec) -> np.ndarray:
    """Continuous vertices of the shape's polygon (rotated, absolute).

    For the cylinder this is its rectangle, for the cone its triangle,
    both without their caps; the hemisphere has none.
    """
    polygon, _ = _parts(spec)
    if polygon is None:
        raise ValueError(f"{spec.kind.value} has no polygon vertices")
    return polygon


def _bounding_box(polygon, caps) -> tuple:
    xs, ys = ([], []) if polygon is None else (list(polygon[:, 0]), list(polygon[:, 1]))
    for cx, edge_y, rx, ry, below in caps:
        xs += [cx - rx, cx + rx]
        ys += [edge_y, edge_y + ry if below else edge_y - ry]
    return min(xs), min(ys), max(xs), max(ys)


def _validate(spec: ShapeSpec, width: int, height: int) -> tuple:
    """Check ``spec`` for a ``width`` x ``height`` raster; return its
    polygon, its caps and its bounding box ``(x0, y0, x1, y1)``."""
    dims = _dimensions(spec)
    cx, cy = spec.center
    # Every test below is False for NaN, so it would pass them all.
    finite = {"center x": cx, "center y": cy, **dims, "bulge": spec.bulge, "rotation": spec.rotation}
    for name, value in finite.items():
        if not math.isfinite(value):
            raise ValueError(f"{spec.kind.value} {name} must be finite, got {value}")
    for name, value in dims.items():
        if name not in ("diagonal_ratio", "cross_fraction") and value < 8:
            raise ValueError(f"{spec.kind.value} {name} must be >= 8 px, got {value}")
    polygon, caps = _parts(spec)
    if spec.rotation != 0 and caps:
        raise ValueError(f"rotation is not supported for {spec.kind.value}")
    limit = _BULGE_LIMITS.get(spec.kind)
    if limit is not None:
        if spec.bulge <= 0:
            raise ValueError(f"{spec.kind.value} requires a positive bulge")
        if spec.bulge > limit * spec.height:
            raise ValueError(
                f"{spec.kind.value} bulge {spec.bulge} exceeds"
                f" {limit} * height = {limit * spec.height}"
            )
    elif spec.bulge:
        raise ValueError(f"bulge is not supported for {spec.kind.value}")
    if not (0 <= spec.bg <= 255 and 0 <= spec.fg <= 255):
        raise ValueError("fg and bg intensities must lie in [0, 255]")
    if spec.fg == spec.bg:
        raise ValueError("fg and bg intensities must differ")
    x0, y0, x1, y1 = _bounding_box(polygon, caps)
    if x0 < 2 or y0 < 2 or x1 > width - 3 or y1 > height - 3:
        raise ValueError(
            f"shape bounding box ({x0:.1f},{y0:.1f})..({x1:.1f},{y1:.1f})"
            f" leaves less than the 2 px margin in a {width}x{height} raster"
        )
    return polygon, caps, (x0, y0, x1, y1)


def _fill_convex(vertices: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # Combining a Python bool with an array is many times slower than
    # combining two arrays, so start from arrays.
    pos = np.ones(np.broadcast_shapes(xs.shape, ys.shape), dtype=bool)
    neg = pos.copy()
    for (x1, y1), (x2, y2) in zip(vertices, np.roll(vertices, -1, axis=0)):
        # The edge's cross product is a - b.  A float difference is zero
        # only where its operands are equal, so comparing a with b gives
        # its sign exactly, without an (h, w) float array.
        a = (x2 - x1) * (ys - y1)
        b = (y2 - y1) * (xs - x1)
        pos &= a >= b
        neg &= a <= b
    return pos | neg


def _half_ellipse(xs, ys, cx, edge_y, rx, ry, below: bool) -> np.ndarray:
    # Multiplied out rather than divided by rx and ry, so no quotient is
    # rounded: a hemisphere at an integer center lights the same pixels as
    # the circle test dx^2 + dy^2 <= r^2.
    inside = ((xs - cx) * ry) ** 2 + ((ys - edge_y) * rx) ** 2 <= (rx * ry) ** 2
    return inside & (ys >= edge_y if below else ys <= edge_y)


def render(spec: ShapeSpec, width: int, height: int) -> np.ndarray:
    """Rasterize ``spec`` into a ``(height, width)`` uint8 image."""
    if width < 1 or height < 1:
        raise ValueError(f"raster dimensions must be >= 1, got {width}x{height}")
    polygon, caps, (x0, y0, x1, y1) = _validate(spec, width, height)
    # Only pixels in the bounding box can be inside.  A column of its rows'
    # y and a row of its columns' x: every predicate broadcasts.
    box = slice(math.floor(y0), math.ceil(y1) + 1), slice(math.floor(x0), math.ceil(x1) + 1)
    ys, xs = (a.astype(float) for a in np.ogrid[box])
    if polygon is None:
        inside = np.zeros((ys.size, xs.size), dtype=bool)
    else:
        inside = _fill_convex(polygon, xs, ys)
    for cap in caps:
        inside |= _half_ellipse(xs, ys, *cap)
    image = np.full((height, width), spec.bg, dtype=np.uint8)
    image[box][inside] = spec.fg
    return image


def analytic_area(spec: ShapeSpec) -> float:
    """Continuous area of the filled region, for pixel-count cross-checks."""
    polygon, caps = _parts(spec)
    area = 0.0
    if polygon is not None:
        # Taken about a vertex, which keeps the products small.
        x, y = (polygon - polygon[0]).T
        area = abs(x @ np.roll(y, -1) - y @ np.roll(x, -1)) / 2
    return float(area + sum(math.pi * rx * ry / 2 for _, _, rx, ry, _ in caps))


def corpus(width: int = 256, height: int = 256) -> list:
    """The eight reference shapes, in report order, scaled to the raster.

    At the default 256x256 the parameters are exactly as documented below;
    other sizes scale every dimension by ``min(width, height) / 256``.
    """
    s = min(width, height) / 256.0
    cx = width / 2.0 - 0.5
    cy = height / 2.0 - 0.5
    entries = [
        ("rectangle", ShapeSpec.rectangle((cx, cy), 120 * s, 80 * s)),
        ("cylinder", ShapeSpec.cylinder((cx, cy), 100 * s, 120 * s, 15 * s)),
        ("kite", ShapeSpec.kite((cx, cy), 160 * s, 80 * s, 0.375)),
        ("square", ShapeSpec.square((cx, cy), 100 * s)),
        ("rhombus", ShapeSpec.rhombus((cx, cy), 100 * s, 0.75)),
        ("hemisphere", ShapeSpec.hemisphere((cx, cy - 25 * s), 50 * s)),
        ("triangle", ShapeSpec.triangle((cx, cy), 100 * s, 100 * s)),
        ("cone", ShapeSpec.cone((cx, cy), 110 * s, 100 * s, 12 * s)),
    ]
    return entries
