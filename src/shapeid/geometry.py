"""Corner extraction and distance/area features of a segmented object.

Corners are the vertices of the maximum-area quadrilateral inscribed in
the convex hull of the object.  When that quadrilateral barely beats the
best inscribed triangle (the fourth vertex adds only a sliver, as for
triangles and capped triangles), the shape has three real corners: the
triangle is returned with one vertex repeated, which drives the smallest
pairwise corner distance to zero and marks the set as degenerate for the
classifier.  All choices resolve ties by scan order, so extraction is
deterministic.

Every point set is integer pixel coordinates.  Features are computed
from an object's row spans (``segment.Spans``): its pixel area is their
pixel total, its hull is that of each row's first and last pixel, and
its polygon area is the one the corner search found for the corners it
chose.  Every hull comes from one numpy routine, ``_convex_path``, which
prunes a path of column extremes to the hull's vertices.  The corner
search reduces the triangle areas over all vertex triples in blocks of
at most ``_BLOCK`` values, with no Python loop per vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .segment import Spans, row_spans

__all__ = [
    "FeatureVector",
    "HemisphereFit",
    "build_features",
    "convex_hull",
    "extract_corners",
    "features_of_spans",
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

#: Largest x or y offset, in px, at which ``fit_hemisphere`` still counts
#: a corner pair as axis-aligned.
ALIGN_EPS = 2.0

#: Most cross products the corner search holds at once (32 KiB of int64).
_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Distance and area features of one object.

    ``corners`` is a (4, 2) array of (x, y) pixel coordinates in
    counterclockwise order; ``distances`` holds the six pairwise corner
    distances in ``CORNER_PAIRS`` order and ``sd`` their minimum.
    ``area_px`` counts foreground pixels; ``poly_area`` is the area of the
    corner polygon, in which a repeated pick adds nothing.
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
    """Strictly convex hull (collinear points dropped), by ``_convex_path``.

    ``points`` is an (N, 2) array of integer pixel coordinates, signed or
    unsigned; any other dtype or shape raises ``ValueError``.  Returns hull
    vertices in counterclockwise order starting from the lexicographically
    smallest point, with the input's dtype.  Degenerate inputs yield fewer
    than three vertices.  The coordinates must span less than 2**31, so
    that the turn test is exact; else ``ValueError``.
    """
    pts = np.asarray(points)
    if pts.dtype.kind not in "iu" or pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(
            f"expected an (N, 2) array of integer coordinates, got {pts.dtype} of shape {pts.shape}"
        )
    pts = np.unique(pts, axis=0)  # sorts by x, then y
    if len(pts) == 0:
        return pts
    span = max(int(hi) - int(lo) for lo, hi in zip(pts.min(axis=0), pts.max(axis=0)))
    if span >= 1 << 31:
        raise ValueError(f"integer coordinates must span less than 2**31, got {span}")
    new = pts[1:, 0] != pts[:-1, 0]  # where x changes: each column's run ends
    lower = pts[np.r_[True, new]]
    upper = pts[np.r_[new, True]][::-1]
    return _convex_path(np.concatenate([lower, upper]), len(lower))


def _convex_path(path: np.ndarray, split: int) -> np.ndarray:
    """Vertices of the convex hull of a path of column extremes.

    The path holds each column's lowest point, columns (the first
    coordinate) ascending, then from ``path[split]`` each one's highest,
    descending.  A point on or inside the segment joining its path
    neighbours lies between it and its column's other extreme, so it is no
    hull vertex (a one-point column is on the path twice; both copies drop
    only between both chains).  All such points drop at once, until none
    does; the last column's two points stay.  The rest, with a one-point
    first or last column's copies merged, is the monotone chain's (Andrew
    1979) output.  Integer turns are exact in int64 relative to ``path[0]``.
    """
    work = path.astype(np.int64) - path[0].astype(np.int64)
    while len(work) > 2:
        ahead = work[2:] - work[:-2]
        side = work[1:-1] - work[:-2]
        keep = np.ones(len(work), dtype=bool)
        keep[1:-1] = side[:, 0] * ahead[:, 1] > side[:, 1] * ahead[:, 0]
        keep[split - 1:split + 1] = True
        if keep.all():
            break
        split = int(np.count_nonzero(keep[:split]))
        path, work = path[keep], work[keep]
    keep = np.ones(len(path), dtype=bool)
    keep[split] = (path[split] != path[split - 1]).any()
    keep[-1] &= (path[-1] != path[0]).any()
    return path[keep]


def _cross_rows(x: np.ndarray, y: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo:hi`` of ``C[a, b] = x[a] * y[b] - y[a] * x[b]``."""
    rows = np.multiply.outer(x[lo:hi], y)
    rows -= np.multiply.outer(y[lo:hi], x)
    return rows


def _scan_group(x, y, whole, g0: int, g1: int):
    """Triangle and quad candidates whose first index is in ``g0:g1``.

    ``cross[i, j, k] = C[i, j] + C[j, k] - C[i, k]`` is twice the signed
    area of triangle ``(i, j, k)``.  Its largest and smallest values over
    ``k`` are taken in blocks of no more than ``_BLOCK`` values.  ``whole``
    is all of ``C`` when it fits in one block, else ``None`` and the rows
    of ``C`` are made per block.  Returns the largest ``|cross|``, the flat
    ``(i - g0, j)`` index of the first row holding it, and per ``i`` the
    total of the first best diagonal ``(i, j)`` (``-1`` when one side of
    it is empty) and that ``j``.
    """
    n = len(x)
    rows = g1 - g0
    ci = whole[g0:g1] if whole is not None else _cross_rows(x, y, g0, g1)
    top = np.empty_like(ci)
    low = np.empty_like(ci)
    if whole is not None:
        step_i, step_j = max(1, _BLOCK // (n * n)), n
    else:
        step_i, step_j = rows, max(1, _BLOCK // (rows * n))
    buffer = np.empty((step_i, step_j, n), dtype=np.int64)
    for i0 in range(0, rows, step_i):
        i1 = min(rows, i0 + step_i)
        for j0 in range(0, n, step_j):
            j1 = min(n, j0 + step_j)
            cj = whole[j0:j1] if whole is not None else _cross_rows(x, y, j0, j1)
            block = buffer[:i1 - i0, :j1 - j0]
            np.copyto(block, cj)  # C[j, k], repeated over i
            block -= ci[i0:i1, None, :]
            block.max(axis=2, out=top[i0:i1, j0:j1])
            block.min(axis=2, out=low[i0:i1, j0:j1])
    top += ci
    low += ci
    # cross[i, j, i] == 0, so top >= 0 >= low.
    spread = np.maximum(top, -low)
    flat = int(spread.argmax())
    total = top - low
    j = total.argmax(axis=1)
    at = np.arange(rows)
    both_sides = (top[at, j] > 0) & (low[at, j] < 0)
    return int(spread.flat[flat]), flat, np.where(both_sides, total[at, j], -1), j


def _best_triangle_and_quad(hull: np.ndarray):
    """Max-area triangle and max-area quadrilateral over the vertices of an
    integer hull from ``convex_hull`` or ``_span_hull``.

    Returns ``(tri2, tri_idx, quad2, quad_idx)`` where the areas are twice
    the polygon area, as exact ``int``.  The h x h x h tensor of triangle
    areas is reduced over its last index in bounded blocks, a group of
    first indices at a time (``_scan_group``).  The triangle is the first
    ``(i, j, k)`` in scan order with the largest absolute area.  The quad
    search treats each pair ``(i, j)`` as a diagonal and adds the largest
    areas on both sides.  For each ``i`` the first best ``j`` counts, and
    only if it has vertices on both sides; the first such ``i`` with the
    largest sum wins.  A three-vertex hull has no such pair, so its
    triangle is the hull itself, ``(0, 1, 2)``.
    """
    pts = hull.astype(np.int64)
    n = len(pts)
    # Areas do not change under translation; this keeps the products small.
    x = pts[:, 0] - pts[0, 0]
    y = pts[:, 1] - pts[0, 1]
    whole = _cross_rows(x, y, 0, n) if n * n <= _BLOCK else None
    # All i's at once when C fits in a block.  Else few enough that each
    # per-group array holds a quarter of a block: with a block and the
    # buffer numpy fills to broadcast into it, under 128 KiB in all.
    group = n if whole is not None else max(1, _BLOCK // (4 * n))
    tri2, tri_row = -1, None
    quad_sum = np.empty(n, dtype=np.int64)  # per i: best diagonal's total
    quad_j = np.empty(n, dtype=np.int64)  # per i: first j with that total
    for g0 in range(0, n, group):
        g1 = min(n, g0 + group)
        value, flat, quad_sum[g0:g1], quad_j[g0:g1] = _scan_group(x, y, whole, g0, g1)
        if value > tri2:
            tri2 = value
            tri_row = divmod(g0 * n + flat, n)

    def areas(i, j):  # cross[i, j, :]
        return (x[j] - x[i]) * (y - y[i]) - (y[j] - y[i]) * (x - x[i])

    i, j = tri_row
    tri_idx = (i, j, int(np.abs(areas(i, j)).argmax()))
    i = int(quad_sum.argmax())
    quad2 = int(quad_sum[i])
    if quad2 < 0:
        return tri2, tri_idx, -1, None
    j = int(quad_j[i])
    cross = areas(i, j)
    return tri2, tri_idx, quad2, (i, int(cross.argmax()), j, int(cross.argmin()))


def _too_few_points(count: int) -> str:
    return f"too few points: corner extraction needs >= 3, got {count}"


def extract_corners(points: np.ndarray) -> np.ndarray:
    """Pick four corner points from the convex hull of integer pixel
    coordinates (``convex_hull``'s input).

    Returns the vertices of the maximum-area quadrilateral when it beats
    the maximum-area triangle by the ``QUAD_GAIN`` factor; otherwise the
    triangle vertices with one repeated (a degenerate fourth corner).
    Raises ``ValueError`` for fewer than three points, a fully collinear
    set, or points ``convex_hull`` rejects.
    """
    pts = np.asarray(points)
    # A 0-d input has no length; convex_hull rejects it by its shape.
    if pts.ndim and len(pts) < 3:
        raise ValueError(_too_few_points(len(pts)))
    return _corners_of_hull(convex_hull(pts))[0]


def _corners_of_hull(hull: np.ndarray) -> tuple[np.ndarray, int]:
    """``extract_corners`` once the hull is known, with twice the area of
    the chosen quadrilateral or triangle (an exact ``int``).

    The triangle and quadrilateral come from ``_best_triangle_and_quad``,
    which holds at most ``_BLOCK`` triangle areas at a time, so its memory
    stays bounded (under 128 KiB at 80 and 200 hull vertices).
    """
    if len(hull) < 3:
        raise ValueError("degenerate boundary: all points collinear")

    tri2, tri_idx, quad2, quad_idx = _best_triangle_and_quad(hull)
    if quad_idx is not None and quad2 > QUAD_GAIN * tri2:
        return order_counterclockwise(hull[list(quad_idx)]), quad2
    tri = hull[list(tri_idx)]

    # Three real corners: repeat the vertex farthest from the other two.
    totals = [
        math.dist(tri[a], tri[b]) + math.dist(tri[a], tri[c])
        for a, b, c in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    ]
    dup = tri[int(np.argmax(totals))]
    return order_counterclockwise(np.vstack([tri, dup])), tri2


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


def fit_hemisphere(corners: np.ndarray) -> HemisphereFit | None:
    """Fit a flat-edge center/radius from an axis-aligned corner pair.

    Scans the six corner pairs for one aligned within ``ALIGN_EPS`` px
    along y (horizontal pair) or x (vertical pair) and keeps the widest;
    the center is the pair midpoint and the radius half its separation.
    Returns ``None`` when no pair qualifies.
    """
    pts = np.asarray(corners, dtype=float)
    best = None
    for i, j in CORNER_PAIRS:
        dx = abs(pts[i][0] - pts[j][0])
        dy = abs(pts[i][1] - pts[j][1])
        if dy <= ALIGN_EPS:
            axis = "horizontal"
        elif dx <= ALIGN_EPS:
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


def _span_hull(spans: Spans) -> np.ndarray:
    """Convex hull of the spans' end pixels, which is the hull of all their
    pixels, in ``convex_hull``'s order and as ``int64``.

    Read as (y, x), the first columns top to bottom and then the last
    columns bottom to top are a path for ``_convex_path``, with no sort.
    Its clockwise result is reversed and rotated to start at the smallest
    (x, y).
    """
    ys = np.concatenate([spans.ys, spans.ys[::-1]])
    xs = np.concatenate([spans.first, spans.last[::-1]])
    hull = _convex_path(np.column_stack([ys, xs]).astype(np.int64, copy=False), len(spans.ys))[::-1, ::-1]
    return np.roll(hull, -np.lexsort(hull.T[::-1])[0], axis=0)


def features_of_spans(spans: Spans) -> FeatureVector:
    """Corners of the convex hull of one object's ``Spans`` -> distances
    and areas.  ``area_px`` is the spans' pixel total; ``poly_area`` is
    half the doubled area the corner search found for its polygon, which
    equals ``polygon_area(corners)`` on these integer corners."""
    area_px = spans.area
    # boundary() of these pixels has fewer than three points exactly when
    # there are fewer than three pixels, so this is the count
    # extract_corners would see.
    if area_px < 3:
        raise ValueError(_too_few_points(area_px))
    corners, area2 = _corners_of_hull(_span_hull(spans))
    d, sd = pairwise_distances(corners)
    return FeatureVector(
        corners=corners,
        distances=tuple(float(x) for x in d),
        sd=sd,
        area_px=area_px,
        poly_area=area2 / 2,
    )


def build_features(mask: np.ndarray) -> FeatureVector:
    """``features_of_spans`` of the mask's non-empty rows, for a
    single-object mask; a mask that is not 2-D or has no foreground raises
    ``ValueError``."""
    return features_of_spans(row_spans(mask))
