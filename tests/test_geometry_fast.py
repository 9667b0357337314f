"""The spans' hull and the corner search against the code they replaced.

The features prune the ends of an object's row spans to the hull's
vertices with no sort (``_span_hull``), and ``_best_triangle_and_quad``
finds the extreme triangle areas on each side of every diagonal by
support lookups instead of looping over vertices.  Both must give the old
results bit for bit, including which of several equal candidates wins,
at every hull size and at every span below ``SIDE_LIMIT``.
The old per-vertex search is kept here verbatim as the oracle; the old
hull is ``convex_hull(old_row_extremes(mask))``, and the old monotone
chain is ``old_convex_hull``.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import source_mutant
from shapeid import ShapeSpec, convex_hull, isolate_object, render
from shapeid import geometry
from shapeid.geometry import (
    _best_triangle_and_quad,
    _corners_of_hull,
    _span_hull,
    extract_corners,
    features_of_spans,
    order_counterclockwise,
    polygon_area,
)
from shapeid.pgm import SIDE_LIMIT
from test_hull_from_mask import mask_spans, old_convex_hull, old_row_extremes


def old_best_triangle_and_quad(hull: np.ndarray):
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


def regular_hull(count: int, radius: float, phase: float = 0.0) -> np.ndarray:
    """Hull of a regular polygon rounded to integers.  With ``count`` a
    multiple of four and no phase it is symmetric under quarter turns, so
    many triangles and quadrilaterals tie exactly."""
    t = phase + 2 * np.pi * np.arange(count) / count
    pts = np.column_stack([np.rint(radius * np.cos(t)), np.rint(radius * np.sin(t))])
    return convex_hull(pts.astype(np.int64))


def octagon_hull(a: int, b: int) -> np.ndarray:
    """The eight points (+-a, +-b), (+-b, +-a): mirror symmetric both ways."""
    signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    pts = [(sx * a, sy * b) for sx, sy in signs] + [(sx * b, sy * a) for sx, sy in signs]
    return convex_hull(np.array(pts, dtype=np.int64))


# Hulls with exact ties, on both sides of the largest hull searched in one
# group of rows (32 vertices), whose low extremes are its top ones
# transposed, and the smallest searched in two (33).
TIED_HULLS = [
    convex_hull(np.array([[0, 0], [7, 0], [7, 3], [0, 3]])),
    convex_hull(np.array([[2, 1], [9, 1], [9, 1], [9, 6], [2, 6], [5, 1], [2, 4]])),
    octagon_hull(5, 2),
    octagon_hull(40, 13),
    # Mirror symmetric: two best diagonals from the winning vertex.
    convex_hull(np.array([[-8, -2], [-3, -4], [2, -2], [2, 2], [-3, 4], [-8, 2]])),
    # An edge parallel to the quad's diagonal, on its positive side ...
    convex_hull(np.array([[-4, 2], [0, -5], [4, 2], [2, 5], [-2, 5]])),
    # ... and on its negative side.
    convex_hull(np.array([[-4, 2], [-2, -3], [0, -3], [2, 2], [0, 7], [-2, 7]])),
    *(regular_hull(count, 1000.0) for count in (8, 12, 16, 24, 32, 33, 64, 68, 72, 96, 120)),
    # The same mirror symmetry, with the vertex on the mirror at the left,
    # where the hull starts.
    regular_hull(33, 10_000.0, np.pi / 33),
]


def test_tied_hulls_have_the_intended_sizes():
    sizes = [len(h) for h in TIED_HULLS]
    assert sizes == [4, 4, 8, 8, 6, 5, 6, 8, 12, 16, 24, 32, 33, 64, 68, 72, 96, 120, 33]
    assert max(size for size in sizes if size * size <= geometry._GROUP_VALUES) == 32


#: Where a hull's vertex list starts: its first vertex, its second, or the
#: one halfway round.  A hull may start at any vertex (``_span_hull`` and
#: ``convex_hull`` need not agree), and the start moves the groups' edges,
#: the origin the search subtracts and the vertex order ties resolve by.
STARTS = {"first": 0, "second": 1, "half": None}


def started(hull: np.ndarray, start: str) -> np.ndarray:
    shift = STARTS[start]
    return np.roll(hull, -(len(hull) // 2 if shift is None else shift), axis=0)


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("hull", TIED_HULLS, ids=[str(len(h)) for h in TIED_HULLS])
def test_search_matches_loop_on_tied_hulls(hull, start):
    hull = started(hull, start)
    assert _best_triangle_and_quad(hull) == old_best_triangle_and_quad(hull)


@pytest.mark.parametrize("count", [4, 20, 120])
def test_search_is_exact_up_to_the_side_limit(count):
    # With a multiple of four vertices and no phase, the regular hull has
    # the vertices (+-r, 0) and (0, +-r), so it spans exactly 2 r.
    hull = regular_hull(count, SIDE_LIMIT // 2 - 1)
    assert len(hull) == count
    assert np.ptp(hull, axis=0).max() == SIDE_LIMIT - 2
    assert _best_triangle_and_quad(hull) == old_best_triangle_and_quad(hull)
    wider = regular_hull(count, SIDE_LIMIT // 2)
    with pytest.raises(ValueError, match=f"span less than {SIDE_LIMIT} px, got {SIDE_LIMIT}$"):
        extract_corners(wider)


@pytest.mark.parametrize("flip", [False, True], ids=["x", "y"])
def test_extract_corners_refuses_three_points_spanning_the_limit(flip):
    pts = np.array([[0, 0], [SIDE_LIMIT, 0], [0, 5]])
    if flip:
        pts = pts[:, ::-1]
    with pytest.raises(ValueError, match=f"span less than {SIDE_LIMIT} px, got {SIDE_LIMIT}$"):
        extract_corners(pts)
    pts[pts == SIDE_LIMIT] -= 1
    assert len(extract_corners(pts)) == 4


@st.composite
def _random_hulls(draw):
    """Hulls of 3 to about 150 vertices: rounded points on a jittered circle
    or ellipse, one a few pixels narrower than ``SIDE_LIMIT`` and no
    taller, a rounded regular polygon, or a random point cloud."""
    kind = draw(st.sampled_from(["circle", "wide", "regular", "cloud"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "regular":
        return regular_hull(draw(st.integers(3, 150)), draw(st.floats(3.0, 5000.0)), draw(st.floats(0.0, 1.0)))
    if kind in ("circle", "wide"):
        count = draw(st.integers(3, 150))
        t = np.sort(rng.uniform(0.0, 2 * np.pi, count))
        if kind == "wide":  # with both ends of the x axis
            t = np.r_[0.0, t[1:-1], np.pi]
            # The jitter and rounding widen each axis by at most 5 px.
            rx = (SIDE_LIMIT - draw(st.integers(6, 14))) / 2
            ry = draw(st.floats(20.0, rx))
        else:
            rx, ry = draw(st.floats(20.0, 3000.0)), draw(st.floats(20.0, 3000.0))
        jitter = rng.uniform(-1.0, 1.0, (count, 2)) * draw(st.floats(0.0, 2.0))
        pts = np.column_stack([rx * np.cos(t), ry * np.sin(t)]) + jitter
        pts = np.rint(pts).astype(np.int64) + draw(st.integers(-1000, 1000))
    else:
        pts = rng.integers(-50, 50, (draw(st.integers(4, 200)), 2))
    return convex_hull(pts)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hull=_random_hulls().filter(lambda h: len(h) >= 3))
def test_search_matches_loop_on_random_hulls(hull):
    assert np.ptp(hull, axis=0).max() < SIDE_LIMIT
    assert _best_triangle_and_quad(hull) == old_best_triangle_and_quad(hull)


def old_triangle_corners(hull: np.ndarray) -> np.ndarray:
    """``_corners_of_hull`` of a three-vertex hull before the corner search
    covered that case: the hull itself, with the vertex farthest from the
    other two repeated."""
    tri = hull

    # Three real corners: repeat the vertex farthest from the other two.
    totals = [
        math.dist(tri[a], tri[b]) + math.dist(tri[a], tri[c])
        for a, b, c in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    ]
    dup = tri[int(np.argmax(totals))]
    return order_counterclockwise(np.vstack([tri, dup]))


def _random_triangles(count: int, seed: int) -> list:
    """Three-vertex hulls of random integer triples, small and large, so
    that isosceles and right triangles (tied totals) occur often."""
    rng = np.random.default_rng(seed)
    hulls = []
    while len(hulls) < count:
        reach = int(rng.choice([3, 10, 2000]))
        hull = convex_hull(rng.integers(-reach, reach + 1, (3, 2)))
        if len(hull) == 3:
            hulls.append(hull)
    return hulls


def test_search_picks_the_old_corners_of_random_triangles():
    for hull in _random_triangles(2000, seed=13):
        corners, area2 = _corners_of_hull(hull)
        assert np.array_equal(corners, old_triangle_corners(hull)), hull.tolist()
        tri2, tri_idx, quad2, quad_idx = _best_triangle_and_quad(hull)
        assert (tri_idx, quad2, quad_idx) == ((0, 1, 2), -1, None)
        assert area2 == tri2


_point = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pts=st.lists(_point, min_size=3, max_size=3), shift=st.integers(-(2**20), 2**20))
def test_search_picks_the_old_corners_of_hypothesis_triangles(pts, shift):
    hull = convex_hull(np.array(pts, dtype=np.int64) + shift)
    assume(len(hull) == 3)
    corners, _ = _corners_of_hull(hull)
    assert np.array_equal(corners, old_triangle_corners(hull))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hull=_random_hulls().filter(lambda h: len(h) >= 3), shift=st.integers(-(2**20), 2**20))
def test_search_area_is_the_corner_polygon_area(hull, shift):
    corners, area2 = _corners_of_hull(hull + shift)
    assert type(area2) is int
    assert area2 / 2 == polygon_area(corners)


@st.composite
def _rough_masks(draw, max_side=32):
    """Masks with several components, holes, skipped rows and one-pixel rows."""
    h = draw(st.integers(1, max_side))
    w = draw(st.integers(1, max_side))
    if draw(st.booleans()):
        m = draw(arrays(np.bool_, (h, w)))
    else:
        m = np.zeros((h, w), dtype=bool)
        for value in (True, True, True, False, False):
            y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
            y1, x1 = draw(st.integers(y0, h)), draw(st.integers(x0, w))
            m[y0:y1 + 1, x0:x1 + 1] = value
    for y in draw(st.lists(st.integers(0, h - 1), max_size=4)):
        m[y] = False
    for y in draw(st.lists(st.integers(0, h - 1), max_size=4)):
        m[y] = False
        m[y, draw(st.integers(0, w - 1))] = True
    return m


@st.composite
def _rendered_masks(draw):
    """Rotated polygons and curved shapes: long digital edges at any slope."""
    size = draw(st.integers(48, 128))
    c = (size / 2.0 - 0.5, size / 2.0 - 0.5)
    angle = draw(st.floats(0.0, 90.0))
    s = size / 256.0
    spec = draw(st.sampled_from([
        ShapeSpec.rectangle(c, 120 * s, 80 * s, rotation=angle),
        ShapeSpec.kite(c, 160 * s, 80 * s, 0.375, rotation=angle),
        ShapeSpec.triangle(c, 100 * s, 100 * s, rotation=angle),
        ShapeSpec.rhombus(c, 100 * s, 0.75, rotation=angle),
        ShapeSpec.hemisphere(c, 50 * s),
    ]))
    return render(spec, size, size) > 0


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mask=st.one_of(_rough_masks(), _rendered_masks()))
@example(mask=np.zeros((3, 4), dtype=bool))
def test_pruned_hull_matches_unpruned(mask):
    if not mask.any():
        assert len(convex_hull(old_row_extremes(mask))) == 0
        with pytest.raises(ValueError, match="no object"):
            mask_spans(mask)
        return
    # The masks may hold several components; the spans are the largest's.
    mask = isolate_object(mask)
    unpruned = convex_hull(old_row_extremes(mask))
    pruned = _span_hull(mask_spans(mask))
    assert pruned.dtype == unpruned.dtype == np.int64
    assert pruned.shape == unpruned.shape
    assert np.array_equal(pruned, unpruned)
    every_pixel = np.argwhere(mask)[:, ::-1].astype(np.int64)
    assert np.array_equal(pruned, convex_hull(every_pixel))
    assert np.array_equal(pruned, old_convex_hull(every_pixel))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mask=st.one_of(_rough_masks(), _rendered_masks()))
def test_poly_area_is_the_corner_polygon_area(mask):
    assume(mask.any())
    # The masks may hold several components; the features are the largest's.
    mask = isolate_object(mask)
    assume(np.count_nonzero(mask) >= 3)
    try:
        features = features_of_spans(mask_spans(mask))
    except ValueError as err:  # every pixel on one line
        assert str(err) == "degenerate boundary: all points collinear"
        return
    assert features.poly_area == polygon_area(features.corners)


def test_pruning_keeps_only_few_points_of_a_long_edge():
    c = (127.5, 127.5)
    mask = render(ShapeSpec.rectangle(c, 120, 80, rotation=20.0), 256, 256) > 0
    assert len(mask_spans(mask).ys) > 100
    assert len(_span_hull(mask_spans(mask))) < 40


# Mutation checks: each fragment of geometry.py below is replaced by a
# plausible mistake, and the comparisons above must then find a case that
# differs.

_MUTANT_MASKS = [
    render(spec, 64, 64) > 0
    for spec in (
        ShapeSpec.triangle((31.5, 31.5), 25, 25, rotation=20.0),
        ShapeSpec.rhombus((31.5, 31.5), 25, 0.75),
        ShapeSpec.kite((31.5, 31.5), 40, 20, 0.375, rotation=45.0),
        ShapeSpec.cylinder((31.5, 31.5), 25, 30, 4),
    )
]


@pytest.mark.parametrize("old, new", [
    # prune side flipped: drops the outer points and keeps the inner ones
    ("np.greater(side[:, 0] * ahead[:, 1], side[:, 1] * ahead[:, 0], out=keep[1:-1])",
     "np.less(side[:, 0] * ahead[:, 1], side[:, 1] * ahead[:, 0], out=keep[1:-1])"),
    # the last column left unpinned: a one-point last column drops from
    # both chains in the same pass
    ("keep[split - 1:split + 1] = True", "pass"),
    # a one-point last column's two copies both kept
    ("if low == high:", "if False:"),
    # a one-point first column's two copies both kept
    ("stop = len(path) - (back == front)", "stop = len(path)"),
])
def test_prune_mutants_are_caught(old, new):
    # Both callers of the prune must see the mistake: the spans' hull, and
    # convex_hull on the same points against the old monotone chain.
    mutant = source_mutant(geometry, old, new)
    assert any(
        not np.array_equal(mutant["_span_hull"](mask_spans(m)), convex_hull(old_row_extremes(m)))
        for m in map(isolate_object, _MUTANT_MASKS)
    )
    assert any(
        not np.array_equal(mutant["convex_hull"](old_row_extremes(m)), old_convex_hull(old_row_extremes(m)))
        for m in _MUTANT_MASKS
    )


@pytest.mark.parametrize("old, new", [
    # the last of several equally large triangles, not the first
    ("flat = int(spread.argmax())",
     "flat = spread.size - 1 - int(spread.ravel()[::-1].argmax())"),
    # the last best diagonal of a vertex
    ("j = total.argmax(axis=1)",
     "j = total.shape[1] - 1 - total[:, ::-1].argmax(axis=1)"),
    # the last vertex with the best quadrilateral
    ("i = int(quad_sum.argmax())",
     "i = len(quad_sum) - 1 - int(quad_sum[::-1].argmax())"),
    # a later group replaces an equal triangle
    ("if value > tri2:", "if value >= tri2:"),
    # the last farthest vertex on either side of the quad's diagonal
    ("int(cross.argmax())", "len(cross) - 1 - int(cross[::-1].argmax())"),
    ("int(cross.argmin())", "len(cross) - 1 - int(cross[::-1].argmin())"),
    # a one-group hull's low extremes taken from its top ones untransposed
    ("return top, -top.T", "return top, -top"),
])
@pytest.mark.parametrize("start", ["first", "half"])
def test_search_mutants_are_caught(old, new, start):
    mutant = source_mutant(geometry, old, new)
    hulls = [started(h, start) for h in TIED_HULLS]
    assert any(mutant["_best_triangle_and_quad"](h) != old_best_triangle_and_quad(h) for h in hulls)


@pytest.mark.parametrize("radius", [10_000, SIDE_LIMIT // 2 - 1], ids=["small", "limit"])
@pytest.mark.parametrize("count", range(3, 201))
def test_corner_search_memory_is_bounded(count, radius):
    hull = regular_hull(count, float(radius), 0.1)
    assert len(hull) == count
    assert np.ptp(hull, axis=0).max() < SIDE_LIMIT
    _corners_of_hull(hull)  # first call: let numpy set up its caches
    tracemalloc.start()
    try:
        _corners_of_hull(hull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024
