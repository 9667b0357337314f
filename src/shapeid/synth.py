"""Deterministic rasterizer for the eight reference silhouettes.

A pixel is foreground exactly when its center (integer coordinates) lies
inside the closed continuous region; there is no anti-aliasing, so pixel
counts track the analytic areas and renders are reproducible bit for bit.
Curved solids project to a base polygon plus elliptical caps: a cylinder
is a rectangle with half-ellipse caps on top and bottom, a cone a triangle
with a cap under its base edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import ShapeClass

__all__ = ["ShapeSpec", "analytic_area", "corpus", "polygon_vertices", "render"]

_POLYGON_KINDS = (
    ShapeClass.RECTANGLE,
    ShapeClass.SQUARE,
    ShapeClass.RHOMBUS,
    ShapeClass.KITE,
    ShapeClass.TRIANGLE,
)
_BULGED = (ShapeClass.CYLINDER, ShapeClass.CONE)


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
    kind = spec.kind
    if kind in (ShapeClass.RECTANGLE, ShapeClass.CYLINDER):
        dims = {"width": spec.width, "height": spec.height}
    elif kind is ShapeClass.SQUARE:
        dims = {"side": spec.side}
    elif kind is ShapeClass.RHOMBUS:
        dims = {"side": spec.side, "diagonal_ratio": spec.diagonal_ratio}
    elif kind is ShapeClass.KITE:
        dims = {"diag_long": spec.diag_long, "diag_short": spec.diag_short,
                "cross_fraction": spec.cross_fraction}
    elif kind in (ShapeClass.TRIANGLE, ShapeClass.CONE):
        dims = {"base": spec.base, "height": spec.height}
    elif kind is ShapeClass.HEMISPHERE:
        dims = {"radius": spec.radius}
    else:
        raise ValueError(f"cannot render shape kind {kind!r}")
    for name, value in dims.items():
        if value is None:
            raise ValueError(f"{kind.value} requires parameter {name!r}")
    return dims


def _rotated(local: np.ndarray, spec: ShapeSpec) -> np.ndarray:
    theta = math.radians(spec.rotation)
    c, s = math.cos(theta), math.sin(theta)
    rot = local @ np.array([[c, s], [-s, c]])
    return rot + np.asarray(spec.center, dtype=float)


def polygon_vertices(spec: ShapeSpec) -> np.ndarray:
    """Continuous vertices of the polygonal kinds (rotated, absolute).

    For the cone this is the triangle part, before the base cap.
    """
    kind = spec.kind
    dims = _dimensions(spec)
    if kind in (ShapeClass.RECTANGLE, ShapeClass.SQUARE):
        w = dims.get("width", dims.get("side"))
        h = dims.get("height", dims.get("side"))
        local = np.array([(-w / 2, -h / 2), (w / 2, -h / 2),
                          (w / 2, h / 2), (-w / 2, h / 2)])
    elif kind is ShapeClass.RHOMBUS:
        q = dims["diagonal_ratio"]
        if not 0 < q <= 1:
            raise ValueError(f"diagonal_ratio must be in (0, 1], got {q}")
        d1 = 2 * dims["side"] / math.hypot(1, q)
        d2 = q * d1
        local = np.array([(-d1 / 2, 0), (0, -d2 / 2), (d1 / 2, 0), (0, d2 / 2)])
    elif kind is ShapeClass.KITE:
        d1, d2, f = dims["diag_long"], dims["diag_short"], dims["cross_fraction"]
        if not 0 < f < 1:
            raise ValueError(f"cross_fraction must be in (0, 1), got {f}")
        cross_x = -d1 / 2 + f * d1
        local = np.array([(-d1 / 2, 0), (cross_x, -d2 / 2),
                          (d1 / 2, 0), (cross_x, d2 / 2)])
    elif kind in (ShapeClass.TRIANGLE, ShapeClass.CONE):
        b, h = dims["base"], dims["height"]
        # The cone's bounding box includes the cap, so the triangle part
        # sits `bulge/2` above the box center.
        shift = spec.bulge / 2 if kind is ShapeClass.CONE else 0.0
        local = np.array([(0, -h / 2 - shift), (b / 2, h / 2 - shift),
                          (-b / 2, h / 2 - shift)])
    else:
        raise ValueError(f"{kind.value} has no polygon vertices")
    return _rotated(local, spec)


def _bounding_box(spec: ShapeSpec) -> tuple:
    kind = spec.kind
    cx, cy = spec.center
    if kind is ShapeClass.HEMISPHERE:
        r = spec.radius
        return cx - r, cy, cx + r, cy + r
    if kind is ShapeClass.CYLINDER:
        w, h, b = spec.width, spec.height, spec.bulge
        return cx - w / 2, cy - h / 2 - b, cx + w / 2, cy + h / 2 + b
    verts = polygon_vertices(spec)
    x0, y0 = verts.min(axis=0)
    x1, y1 = verts.max(axis=0)
    if kind is ShapeClass.CONE:
        y1 += spec.bulge
    return x0, y0, x1, y1


def _validate(spec: ShapeSpec, width: int, height: int) -> None:
    dims = _dimensions(spec)
    for name, value in dims.items():
        if name in ("diagonal_ratio", "cross_fraction"):
            continue
        if value < 8:
            raise ValueError(f"{spec.kind.value} {name} must be >= 8 px, got {value}")
    if spec.rotation != 0 and spec.kind not in _POLYGON_KINDS:
        raise ValueError(f"rotation is not supported for {spec.kind.value}")
    if spec.kind in _BULGED:
        if spec.bulge <= 0:
            raise ValueError(f"{spec.kind.value} requires a positive bulge")
        limit = 0.15 if spec.kind is ShapeClass.CYLINDER else 0.25
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
    x0, y0, x1, y1 = _bounding_box(spec)
    if x0 < 2 or y0 < 2 or x1 > width - 3 or y1 > height - 3:
        raise ValueError(
            f"shape bounding box ({x0:.1f},{y0:.1f})..({x1:.1f},{y1:.1f})"
            f" leaves less than the 2 px margin in a {width}x{height} raster"
        )


def _fill_convex(vertices: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    pos = neg = True
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        cross = (x2 - x1) * (ys - y1) - (y2 - y1) * (xs - x1)
        pos &= cross >= 0
        neg &= cross <= 0
    return pos | neg


def _half_ellipse(xs, ys, cx, edge_y, rx, ry, below: bool) -> np.ndarray:
    inside = ((xs - cx) / rx) ** 2 + ((ys - edge_y) / ry) ** 2 <= 1.0
    return inside & (ys >= edge_y if below else ys <= edge_y)


def render(spec: ShapeSpec, width: int, height: int) -> np.ndarray:
    """Rasterize ``spec`` into a ``(height, width)`` uint8 image."""
    if width < 1 or height < 1:
        raise ValueError(f"raster dimensions must be >= 1, got {width}x{height}")
    _validate(spec, width, height)
    # A (height, 1) column and a (1, width) row: every predicate broadcasts.
    ys, xs = (a.astype(float) for a in np.ogrid[0:height, 0:width])
    cx, cy = spec.center
    kind = spec.kind

    if kind is ShapeClass.HEMISPHERE:
        r = spec.radius
        inside = ((xs - cx) ** 2 + (ys - cy) ** 2 <= r * r) & (ys >= cy)
    elif kind is ShapeClass.CYLINDER:
        w, h, b = spec.width, spec.height, spec.bulge
        inside = (np.abs(xs - cx) <= w / 2) & (np.abs(ys - cy) <= h / 2)
        inside |= _half_ellipse(xs, ys, cx, cy - h / 2, w / 2, b, below=False)
        inside |= _half_ellipse(xs, ys, cx, cy + h / 2, w / 2, b, below=True)
    elif kind is ShapeClass.CONE:
        verts = polygon_vertices(spec)
        inside = _fill_convex(verts, xs, ys)
        base_y = cy + spec.height / 2 - spec.bulge / 2
        inside |= _half_ellipse(xs, ys, cx, base_y, spec.base / 2, spec.bulge,
                                below=True)
    else:
        inside = _fill_convex(polygon_vertices(spec), xs, ys)

    return np.where(inside, np.uint8(spec.fg), np.uint8(spec.bg))


def analytic_area(spec: ShapeSpec) -> float:
    """Continuous area of the filled region, for pixel-count cross-checks."""
    kind = spec.kind
    dims = _dimensions(spec)
    if kind is ShapeClass.RECTANGLE:
        return dims["width"] * dims["height"]
    if kind is ShapeClass.SQUARE:
        return dims["side"] ** 2
    if kind is ShapeClass.RHOMBUS:
        q = dims["diagonal_ratio"]
        d1 = 2 * dims["side"] / math.hypot(1, q)
        return d1 * (q * d1) / 2
    if kind is ShapeClass.KITE:
        return dims["diag_long"] * dims["diag_short"] / 2
    if kind is ShapeClass.TRIANGLE:
        return dims["base"] * dims["height"] / 2
    if kind is ShapeClass.HEMISPHERE:
        return math.pi * dims["radius"] ** 2 / 2
    if kind is ShapeClass.CYLINDER:
        return dims["width"] * dims["height"] + math.pi * (dims["width"] / 2) * spec.bulge
    if kind is ShapeClass.CONE:
        return dims["base"] * dims["height"] / 2 + math.pi * (dims["base"] / 2) * spec.bulge / 2
    raise ValueError(f"cannot compute area for {kind!r}")


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
