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
search needs, for every diagonal of the hull, the largest triangle on
each side.  It finds each one's third vertex by binary search on the
hull's edge angles (``_support_rows``), in O(h**2 log h) and with no loop
over vertices in Python.  That search is exact on hulls that span less
than ``pgm.SIDE_LIMIT`` px, the one input limit, which ``check_image``
states for images and ``extract_corners`` for points.

At the typical image size this stage costs per numpy call, not per
pixel, so it makes few of them (``tests/call_table.py`` counts them).
Once the corner search has picked its three or four vertices, the rest
runs on Python numbers, read with ``.tolist()``: the repeated corner of
a triangle, the counterclockwise order and the six distances.  They are
the floats numpy gave, because each is the same float operation in the
same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pgm import SIDE_LIMIT
from .segment import Spans

__all__ = [
    "FeatureVector",
    "HemisphereFit",
    "convex_hull",
    "extract_corners",
    "features_of_spans",
    "fit_hemisphere",
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

#: Most values in each array the corner search holds for one group of
#: rows (8 KiB of float64).
_GROUP_VALUES = 1024


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
    span = _span(pts)
    if span >= 1 << 31:
        raise ValueError(f"integer coordinates must span less than 2**31, got {span}")
    new = pts[1:, 0] != pts[:-1, 0]  # where x changes: each column's run ends
    starts = pts[np.r_[True, new]]
    ends = pts[np.r_[new, True]]
    return _convex_path(starts[:, 0], starts[:, 1], ends[:, 1]).astype(pts.dtype, copy=False)


def _span(pts: np.ndarray) -> int:
    """The larger of the x and y ranges of a non-empty (N, 2) integer
    array, exact whatever its dtype."""
    return max(int(hi) - int(lo) for lo, hi in zip(pts.min(axis=0), pts.max(axis=0)))


def _convex_path(keys: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Vertices, as ``int64``, of the convex hull of the column extremes
    ``(keys[i], low[i])`` and ``(keys[i], high[i])``: ``keys`` are the
    columns (the first coordinate), ascending, and ``low`` and ``high``
    each column's lowest and highest second coordinate.

    The path built from them holds each column's lowest point, columns
    ascending, then from ``path[len(keys)]`` each one's highest, descending.
    A point on or inside the segment joining its path neighbours lies
    between it and its column's other extreme, so it is no hull vertex
    (a one-point column is on the path twice; both copies drop only
    between both chains).  All such points drop at once, until none
    does; the last column's two points stay.  The rest, with a one-point
    first or last column's copies merged, is the monotone chain's (Andrew
    1979) output.  The turns are exact in int64 when the path spans less
    than 2**31: each difference of two points, even if it wraps, is then
    exact, and each product below 2**62.
    """
    split = len(keys)
    # int64 wraps alike going in and out, and differences below 2**31
    # come out exact whatever the dtype's range.
    path = np.empty((2 * split, 2), dtype=np.int64)
    path[:split, 0] = path[split:, 0][::-1] = keys
    path[:split, 1] = low
    path[split:, 1] = high[::-1]
    marks = np.empty(len(path), dtype=bool)
    while len(path) > 2:
        ahead = path[2:] - path[:-2]
        side = path[1:-1] - path[:-2]
        keep = marks[:len(path)]
        np.greater(side[:, 0] * ahead[:, 1], side[:, 1] * ahead[:, 0], out=keep[1:-1])
        keep[0] = keep[-1] = True
        keep[split - 1:split + 1] = True
        kept = keep.cumsum()  # kept[split - 1] points stay before the split
        if kept[-1] == len(path):
            break
        split = int(kept[split - 1])
        path = path[keep]
    # A one-point last column (low == high) or first column (back == front)
    # is on the path twice; one copy stays.
    low, high, back, front = path[[split - 1, split, -1, 0]].tolist()
    stop = len(path) - (back == front)
    if low == high:
        return np.concatenate((path[:split], path[split + 1:stop]))
    return path[:stop]


def _support_rows(x: np.ndarray, y: np.ndarray):
    """The support lookup: a function of ``(g0, g1)`` that returns ``top``
    and ``low`` of rows ``g0:g1`` (see ``_best_triangle_and_quad``), the
    extremes over ``k`` found by binary search, from the vertices' offsets
    ``x`` and ``y`` from the first, as ``float64``.  A group of every row
    takes one lookup: ``cross[i, j, k] = -cross[j, i, k]``, so ``low`` is
    then ``-top.T``.

    On a convex polygon, ``cross[i, j, k]`` is smallest at the vertex
    farthest right of the diagonal from ``i`` to ``j``: the vertex ``k``
    whose incoming edge turns no further than the diagonal and whose
    outgoing edge no less (Boyce, Dobkin, Drysdale & Guibas 1985).  It is
    largest at the vertex that the reversed diagonal gives, whose angle is
    the diagonal's plus pi.  The edges' angles, rotated to ascend from the
    smallest and repeated plus 2 pi, are sorted, so ``searchsorted`` finds
    that vertex for every diagonal of a group at once; ``cross`` is then
    computed there.  At an edge parallel to the diagonal both of its ends
    give the same value, so either may be found.

    The hull must span less than ``SIDE_LIMIT``, as every image's objects
    and every point set ``extract_corners`` accepts do, and that makes
    every step exact.  Two directions between points of such a hull are
    integer vectors with components below ``M = SIDE_LIMIT``, so if they
    differ, their angles differ by more than ``1 / (2 M**2)`` (the sine of
    the angle between them is their integer cross product over their
    lengths), about 4.5e-13.  Every angle compared is below 3 pi, where a
    unit in the last place is 1.8e-15, and is off by at most a few units:
    ``arctan2``'s rounding, then adding pi or 2 pi.  So each comparison of
    a diagonal's angle with an edge's comes out as for the exact angles,
    except at an exact tie, where either end of the edge gives the same
    value.  And each coordinate product is below ``2**40`` and each value
    below ``2**42``, which float64 holds exactly, so ``top`` and ``low``
    are the exact extremes of the integer areas.
    """
    n = len(x)
    ring = np.arange(3 * n + 1) % n
    edge = np.arctan2(y[ring[1:n + 1]] - y, x[ring[1:n + 1]] - x)  # edge k leaves vertex k
    start = int(edge.argmin())
    turn = edge[ring[start:start + 2 * n]]
    turn[n:] += 2 * np.pi
    at = ring[start:start + 2 * n + 1]  # the vertex each searchsorted result names
    ax, ay = x[at], y[at]

    def farthest(angle, dx, dy):  # C[j, k] - C[i, k] at the vertex k found
        k = turn.searchsorted(angle)
        value = ay[k]
        value *= dx
        other = ax[k]
        other *= dy
        value -= other
        return value

    def rows(g0: int, g1: int):
        xi = x[g0:g1, None]
        yi = y[g0:g1, None]
        dx = x - xi
        dy = y - yi
        angle = np.arctan2(dy, dx)
        low = farthest(angle, dx, dy) if g1 - g0 < n else None
        angle += np.pi
        top = farthest(angle, dx, dy)
        del angle  # one array fewer at the peak, while ci is made
        ci = dy * xi  # C[i, j]
        ci -= dx * yi
        top += ci
        if low is None:
            return top, -top.T
        low += ci
        return top, low

    return rows


def _group_candidates(top: np.ndarray, low: np.ndarray):
    """Triangle and quad candidates of a group of rows ``g0:g1``, from
    ``top`` and ``low`` of those rows.  Returns the largest ``|cross|``,
    the flat ``(i - g0, j)`` index of the first row holding it, and per
    ``i`` the total of the first best diagonal ``(i, j)`` (``-1`` when one
    side of it is empty) and that ``j``.
    """
    # cross[i, j, i] == 0, so top >= 0 >= low.
    spread = np.maximum(top, -low)
    flat = int(spread.argmax())
    total = top - low
    j = total.argmax(axis=1)
    at = np.arange(len(top))
    quad = total[at, j]
    quad[(top[at, j] <= 0) | (low[at, j] >= 0)] = -1  # one side is empty
    return int(spread.flat[flat]), flat, quad, j


def _best_triangle_and_quad(hull: np.ndarray):
    """Max-area triangle and max-area quadrilateral over the vertices of an
    integer hull from ``convex_hull`` or ``_span_hull`` that spans less than
    ``SIDE_LIMIT``.

    Returns ``(tri2, tri_idx, quad2, quad_idx)`` where the areas are twice
    the polygon area, as exact ``int``.  ``cross[i, j, k]`` is twice the
    signed area of triangle ``(i, j, k)``; ``top[i, j]`` and ``low[i, j]``
    are its largest and smallest values over ``k``, found by support
    lookups (``_support_rows``) a group of first indices ``i`` at a time,
    in arrays of at most ``_GROUP_VALUES`` values, or of one row when a row
    holds more.

    The triangle is the first ``(i, j, k)`` in scan order with the largest
    absolute area.  The quad search treats each pair ``(i, j)`` as a
    diagonal and adds the largest areas on both sides.  For each ``i`` the
    first best ``j`` counts, and only if it has vertices on both sides; the
    first such ``i`` with the largest sum wins.  A three-vertex hull has no
    such pair, so its triangle is the hull itself, ``(0, 1, 2)``.
    """
    n = len(hull)
    # Areas do not change under translation; this keeps the products small.
    # The offsets are exact in int64 and then in float64, where each product
    # of two differences is below 2**40 and each area below 2**41, so the
    # search and areas() are exact.
    x, y = np.subtract(hull.T, hull[0, :, None], dtype=np.int64, order="C").astype(np.float64)
    search = _support_rows(x, y)
    group = min(n, max(1, _GROUP_VALUES // n))
    tri2, tri_row = -1, None
    # Per i: the best diagonal's total, and the first j with that total.
    quad_sum, quad_j = np.empty((2, n), dtype=np.int64)
    for g0 in range(0, n, group):
        g1 = min(n, g0 + group)
        value, flat, quad_sum[g0:g1], quad_j[g0:g1] = _group_candidates(*search(g0, g1))
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
    Raises ``ValueError`` for fewer than three points, points that span
    ``SIDE_LIMIT`` or more (the corner search is exact only below it), a
    fully collinear set, or points ``convex_hull`` rejects.
    """
    pts = np.asarray(points)
    # A 0-d input has no length; convex_hull rejects it by its shape.
    if pts.ndim and len(pts) < 3:
        raise ValueError(_too_few_points(len(pts)))
    hull = convex_hull(pts)
    span = _span(hull)  # the points' span: their extremes are hull vertices
    if span >= SIDE_LIMIT:
        raise ValueError(f"points must span less than {SIDE_LIMIT} px, got {span}")
    return _corners_of_hull(hull)[0]


def _corners_of_hull(hull: np.ndarray) -> tuple[np.ndarray, int]:
    """``extract_corners`` once the hull is known, with twice the area of
    the chosen quadrilateral or triangle (an exact ``int``).

    The triangle and quadrilateral come from ``_best_triangle_and_quad``.
    It works on a group of diagonals at a time, so its memory stays
    bounded: under 128 KiB at every hull size from 3 to 200 vertices.  The
    picked vertices are then handled as Python lists, and the corners are
    taken from the hull in their order.
    """
    if len(hull) < 3:
        raise ValueError("degenerate boundary: all points collinear")

    tri2, tri_idx, quad2, quad_idx = _best_triangle_and_quad(hull)
    four = quad_idx is not None and quad2 > QUAD_GAIN * tri2
    picks = list(quad_idx if four else tri_idx)
    points = hull[picks].tolist()
    if not four:
        # Three real corners: repeat the vertex farthest from the other two.
        totals = [
            math.dist(points[a], points[b]) + math.dist(points[a], points[c])
            for a, b, c in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
        ]
        far = max(range(3), key=totals.__getitem__)  # the first largest
        picks.append(picks[far])
        points.append(points[far])
    return hull[[picks[k] for k in _counterclockwise(points)]], quad2 if four else tri2


def _counterclockwise(points: list) -> list:
    """Indices that sort ``[x, y]`` points by angle about their centroid
    (ties: radius, then index).  The centroid and the offsets are the floats
    that numpy's ``mean`` and subtraction give for a ``float64`` or integer
    array: the sums run in order from ``0.0``."""
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    cx = cy = 0.0
    for x, y in zip(xs, ys):
        cx += x
        cy += y
    cx /= len(points)
    cy /= len(points)
    rel = [(x - cx, y - cy) for x, y in zip(xs, ys)]
    return sorted(
        range(len(rel)),
        key=lambda i: (math.atan2(rel[i][1], rel[i][0]), rel[i][0] ** 2 + rel[i][1] ** 2, i),
    )


def order_counterclockwise(points: np.ndarray) -> np.ndarray:
    """Sort points by angle about their centroid (ties: radius, then index),
    in ``float64`` (see ``_counterclockwise``)."""
    pts = np.asarray(points)
    return pts[_counterclockwise(pts.tolist())]


def _distances(points: list) -> tuple:
    """Distances of the ``CORNER_PAIRS`` of four ``[x, y]`` points."""
    return tuple(math.dist(points[i], points[j]) for i, j in CORNER_PAIRS)


def pairwise_distances(corners: np.ndarray) -> tuple[np.ndarray, float]:
    """Six pairwise corner distances (canonical pair order) and their minimum."""
    d = np.array(_distances(np.asarray(corners, dtype=float).tolist()))
    return d, float(d.min())


def polygon_area(corners: np.ndarray) -> float:
    """Shoelace area of the ordered corner polygon.

    A point within 0.5 px of an earlier point is dropped first, so a
    repeated pick degrades to the triangle area.  Raises ``ValueError``
    when fewer than three distinct points remain.
    """
    kept: list[np.ndarray] = []
    for p in np.asarray(corners, dtype=float):
        if all(math.dist(p, q) > 0.5 for q in kept):
            kept.append(p)
    if len(kept) < 3:
        raise ValueError(f"degenerate polygon: only {len(kept)} distinct points")
    pts = np.array(kept)
    x, y = pts[:, 0], pts[:, 1]
    return float(abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) / 2.0)


def fit_hemisphere(corners: np.ndarray) -> HemisphereFit | None:
    """Fit a flat-edge center/radius from an axis-aligned corner pair.

    Scans the six corner pairs for one aligned within ``ALIGN_EPS`` px
    along y (horizontal pair) or x (vertical pair) and keeps the widest;
    the center is the pair midpoint and the radius half its separation.
    Returns ``None`` when no pair qualifies.
    """
    pts = np.asarray(corners, dtype=float).tolist()
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

    Read as (y, x), the rows are ``_convex_path``'s columns, already
    ascending, and each row's first and last columns its extremes, so no
    sort is needed.  Its clockwise result is reversed and rotated to start
    at the smallest (x, y).
    """
    hull = _convex_path(spans.ys, spans.first, spans.last)[::-1, ::-1]
    start = np.lexsort(hull.T[::-1])[0]
    return np.concatenate((hull[start:], hull[:start]))


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
    distances = _distances(corners.tolist())
    return FeatureVector(
        corners=corners,
        distances=distances,
        sd=min(distances),
        area_px=area_px,
        poly_area=area2 / 2,
    )

