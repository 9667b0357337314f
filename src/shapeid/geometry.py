"""Corner extraction and distance/area features of a segmented object.

Corners are the vertices of the maximum-area quadrilateral inscribed in
the convex hull of the object, which is the hull of each row's leftmost
and rightmost foreground pixel.  When that quadrilateral barely beats the
best inscribed triangle (the fourth vertex adds only a sliver, as for
triangles and capped triangles), the shape has three real corners: the
triangle is returned with one vertex repeated, which drives the smallest
pairwise corner distance to zero and marks the set as degenerate for the
classifier.  All choices resolve ties by scan order, so extraction is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .segment import area

__all__ = [
    "FeatureVector",
    "HemisphereFit",
    "build_features",
    "convex_hull",
    "extract_corners",
    "fit_hemisphere",
    "merge_close_points",
    "pairwise_distances",
    "polygon_area",
]

#: Canonical order of the six unordered corner pairs.
CORNER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: Area factor by which the best quadrilateral must beat the best
#: triangle to count as four real corners.  Measured gains: quadrilaterals
#: ~2.0, capped rectangles ~1.8, half-disks ~1.30, capped triangles <=1.19,
#: triangles ~1.0, so 1.22 splits the population at its widest gap.
QUAD_GAIN = 1.22


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Distance and area features of one object.

    ``corners`` is a (4, 2) array of (x, y) pixel coordinates in
    counterclockwise order; ``distances`` holds the six pairwise corner
    distances in ``CORNER_PAIRS`` order and ``sd`` their minimum.
    ``area_px`` counts foreground pixels; ``poly_area`` is the shoelace
    area of the corner polygon after merging coincident picks.
    """

    corners: np.ndarray
    distances: tuple
    sd: float
    area_px: int
    poly_area: float


@dataclass(frozen=True)
class HemisphereFit:
    center: tuple
    radius: float
    axis: str  # "horizontal" or "vertical"


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Strictly convex hull (collinear points dropped), monotone chain.

    Returns hull vertices in counterclockwise order starting from the
    lexicographically smallest point, with the input's dtype.  Degenerate
    inputs yield fewer than three vertices.
    """
    pts = np.unique(np.asarray(points), axis=0)  # sorts by x, then y
    if len(pts) <= 2:
        return pts
    # A hull vertex is the lowest or highest point of its x column, so only
    # the first and last point of each run of equal x can be one.
    x = pts[:, 0]
    extreme = np.ones(len(pts), dtype=bool)
    extreme[1:-1] = (x[1:-1] != x[:-2]) | (x[1:-1] != x[2:])
    candidates = pts[extreme].tolist()  # Python numbers: no numpy scalar math

    def half(iterable):
        chain = []
        for p in iterable:
            while len(chain) >= 2:
                ox, oy = chain[-2]
                ax, ay = chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(candidates)
    upper = half(reversed(candidates))
    return np.array(lower[:-1] + upper[:-1], dtype=pts.dtype)


def _best_triangle_and_quad(hull: np.ndarray):
    """Max-area triangle and max-area quadrilateral over hull vertices.

    Returns ``(tri2, tri_idx, quad2, quad_idx)`` where the areas are twice
    the polygon area (exact integers for integer input).  The quad search
    treats each vertex pair as a diagonal and takes the extreme cross
    products on both sides; ties resolve to the first candidate in scan
    order.
    """
    pts = hull.astype(np.int64)
    n = len(pts)
    tri2 = -1
    tri_idx = None
    quad2 = -1
    quad_idx = None
    for i in range(n):
        rel = pts - pts[i]
        cross = np.outer(rel[:, 0], rel[:, 1]) - np.outer(rel[:, 1], rel[:, 0])
        flat = int(np.argmax(np.abs(cross)))
        j, k = divmod(flat, n)
        value = int(abs(cross[j, k]))
        if value > tri2:
            tri2, tri_idx = value, (i, j, k)
        pos = np.maximum(cross, 0).max(axis=1)
        neg = np.maximum(-cross, 0).max(axis=1)
        total = pos + neg
        j = int(np.argmax(total))
        value = int(total[j])
        if value > quad2 and pos[j] > 0 and neg[j] > 0:
            k_pos = int(np.argmax(cross[j]))
            k_neg = int(np.argmin(cross[j]))
            quad2, quad_idx = value, (i, k_pos, j, k_neg)
    return tri2, tri_idx, quad2, quad_idx


def _too_few_points(count: int) -> str:
    return f"too few points: corner extraction needs >= 3, got {count}"


def extract_corners(points: np.ndarray) -> np.ndarray:
    """Pick four corner points from the convex hull of a point set.

    Returns the vertices of the maximum-area quadrilateral when it beats
    the maximum-area triangle by the ``QUAD_GAIN`` factor; otherwise the
    triangle vertices with one repeated (a degenerate fourth corner).
    Raises ``ValueError`` for fewer than three points or a fully collinear
    set.
    """
    pts = np.asarray(points)
    if len(pts) < 3:
        raise ValueError(_too_few_points(len(pts)))
    return _corners_of_hull(convex_hull(pts))


def _corners_of_hull(hull: np.ndarray) -> np.ndarray:
    """``extract_corners`` once the hull is known."""
    if len(hull) < 3:
        raise ValueError("degenerate boundary: all points collinear")

    if len(hull) == 3:
        tri = hull
    else:
        tri2, tri_idx, quad2, quad_idx = _best_triangle_and_quad(hull)
        if quad_idx is not None and quad2 > QUAD_GAIN * tri2:
            return order_counterclockwise(hull[list(quad_idx)])
        tri = hull[list(tri_idx)]

    # Three real corners: repeat the vertex farthest from the other two.
    totals = [
        math.dist(tri[a], tri[b]) + math.dist(tri[a], tri[c])
        for a, b, c in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    ]
    dup = tri[int(np.argmax(totals))]
    return order_counterclockwise(np.vstack([tri, dup]))


def order_counterclockwise(points: np.ndarray) -> np.ndarray:
    """Sort points by angle about their centroid (ties: radius, then index)."""
    pts = np.asarray(points)
    centroid = pts.mean(axis=0)
    rel = pts - centroid
    keys = sorted(
        range(len(pts)),
        key=lambda i: (
            math.atan2(rel[i][1], rel[i][0]),
            rel[i][0] ** 2 + rel[i][1] ** 2,
            i,
        ),
    )
    return pts[keys]


def pairwise_distances(corners: np.ndarray) -> tuple[np.ndarray, float]:
    """Six pairwise corner distances (canonical pair order) and their minimum."""
    pts = np.asarray(corners, dtype=float)
    d = np.array([math.dist(pts[i], pts[j]) for i, j in CORNER_PAIRS])
    return d, float(d.min())


def merge_close_points(points: np.ndarray, eps: float) -> np.ndarray:
    """Drop points within ``eps`` of an earlier point, keeping input order."""
    kept: list[np.ndarray] = []
    for p in np.asarray(points, dtype=float):
        if all(math.dist(p, q) > eps for q in kept):
            kept.append(p)
    return np.array(kept)


def polygon_area(corners: np.ndarray) -> float:
    """Shoelace area of the ordered corner polygon.

    Points closer than 0.5 px are merged first, so a repeated pick
    degrades to the triangle area.  Raises ``ValueError`` when fewer than
    three distinct points remain.
    """
    pts = merge_close_points(corners, 0.5)
    if len(pts) < 3:
        raise ValueError(f"degenerate polygon: only {len(pts)} distinct points")
    x = pts[:, 0]
    y = pts[:, 1]
    return float(abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) / 2.0)


def fit_hemisphere(corners: np.ndarray, align_eps: float = 2.0) -> HemisphereFit | None:
    """Fit a flat-edge center/radius from an axis-aligned corner pair.

    Scans the six corner pairs for one aligned within ``align_eps`` px
    along y (horizontal pair) or x (vertical pair) and keeps the widest;
    the center is the pair midpoint and the radius half its separation.
    Returns ``None`` when no pair qualifies.
    """
    pts = np.asarray(corners, dtype=float)
    best = None
    for i, j in CORNER_PAIRS:
        dx = abs(pts[i][0] - pts[j][0])
        dy = abs(pts[i][1] - pts[j][1])
        if dy <= align_eps:
            axis = "horizontal"
        elif dx <= align_eps:
            axis = "vertical"
        else:
            continue
        sep = math.dist(pts[i], pts[j])
        if best is None or sep > best[0]:
            mid = (
                float(pts[i][0] + pts[j][0]) / 2.0,
                float(pts[i][1] + pts[j][1]) / 2.0,
            )
            best = (sep, HemisphereFit(center=mid, radius=sep / 2.0, axis=axis))
    return None if best is None else best[1]


def _row_extremes(mask: np.ndarray) -> np.ndarray:
    """Leftmost then rightmost foreground pixel of every non-empty row.

    Returns a (2R, 2) int64 array of (x, y) coordinates for R non-empty
    rows (a one-pixel row appears twice).  Its convex hull is the hull of
    the whole mask, and of ``boundary(mask)``.
    """
    m = np.asarray(mask, dtype=bool)
    ys = np.flatnonzero(m.any(axis=1))
    rows = m[ys]
    first = rows.argmax(axis=1)
    last = m.shape[1] - 1 - rows[:, ::-1].argmax(axis=1)
    xs = np.concatenate([first, last])
    return np.column_stack([xs, np.concatenate([ys, ys])]).astype(np.int64)


def build_features(mask: np.ndarray) -> FeatureVector:
    """Corners of the mask's convex hull -> distances and areas for a
    single-object mask."""
    area_px = area(mask)
    if area_px == 0:
        raise ValueError("no object: mask has no foreground pixels")
    # boundary(mask) has fewer than three points exactly when the mask has
    # fewer than three pixels, so this is the count extract_corners would see.
    if area_px < 3:
        raise ValueError(_too_few_points(area_px))
    corners = _corners_of_hull(convex_hull(_row_extremes(mask)))
    d, sd = pairwise_distances(corners)
    return FeatureVector(
        corners=corners,
        distances=tuple(float(x) for x in d),
        sd=sd,
        area_px=area_px,
        poly_area=polygon_area(corners),
    )
