"""The hull-from-mask pipeline against the whole-mask code it replaced.

``classify_raster`` takes the convex hull from each row's extreme pixels
instead of from ``boundary()``, thins the hull's input to column extremes,
and labels only the foreground's bounding box.  Each rewrite is checked
here against the previous implementation, kept verbatim as the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from helpers import flood_components
from shapeid import boundary, build_features, convex_hull, extract_corners, isolate_object
from shapeid.geometry import _row_extremes, pairwise_distances, polygon_area

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def old_convex_hull(points):
    """Monotone chain over every unique point, in numpy scalars."""
    pts = np.unique(np.asarray(points), axis=0)
    if len(pts) <= 2:
        return pts

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
            chain.append((p[0], p[1]))
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def old_isolate_object(mask):
    """Largest 4-connected component, labelled over the whole raster."""
    m = np.asarray(mask, dtype=bool)
    if not m.any():
        raise ValueError("no object: mask has no foreground pixels")
    labels, count = ndimage.label(m, structure=_FOUR_CONNECTED)
    if count == 1:
        return m.copy()
    sizes = np.bincount(labels.ravel())[1:]
    tied = np.flatnonzero(sizes == sizes.max()) + 1
    if len(tied) == 1:
        keep = tied[0]
    else:
        flat = labels.ravel()
        keep = min(tied, key=lambda lab: int(np.argmax(flat == lab)))
    return labels == keep


def old_build_features(mask):
    """Corners from the boundary's hull, as (corners, distances, area, poly)."""
    corners = extract_corners(boundary(mask))
    d, _ = pairwise_distances(corners)
    return corners, tuple(float(x) for x in d), int(np.count_nonzero(mask)), polygon_area(corners)


def _outcome(fn, *args):
    """``fn``'s result, or the type and text of the ValueError it raised."""
    try:
        return fn(*args), None
    except ValueError as err:
        return None, (type(err), str(err))


_coord = st.integers(-30, 30)
_scattered = st.lists(st.tuples(_coord, _coord), min_size=0, max_size=60)


@st.composite
def _point_sets(draw):
    """Scattered points plus duplicates and runs along lines, negatives included."""
    pts = draw(_scattered)
    for _ in range(draw(st.integers(0, 3))):
        x0, y0 = draw(_coord), draw(_coord)
        dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1), (-3, 2)]))
        n = draw(st.integers(2, 12))
        pts += [(x0 + i * dx, y0 + i * dy) for i in range(n)]
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=10))
    return np.array(pts, dtype=np.int64).reshape(-1, 2)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pts=_point_sets())
def test_convex_hull_matches_full_monotone_chain(pts):
    hull = convex_hull(pts)
    expected = old_convex_hull(pts)
    assert hull.dtype == expected.dtype
    assert hull.shape == expected.shape
    assert np.array_equal(hull, expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pts=_point_sets().filter(lambda p: len(p) > 0))
def test_convex_hull_keeps_float_and_int32_dtypes(pts):
    for dtype in (np.int32, np.float64):
        hull = convex_hull(pts.astype(dtype))
        expected = old_convex_hull(pts.astype(dtype))
        assert hull.dtype == expected.dtype
        assert np.array_equal(hull, expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    pts=_point_sets().filter(lambda p: len(p) > 0),
    scale32=st.integers(1, 2**14),
    shift32=st.integers(-(2**20), 2**20),
    scale64=st.integers(1, 2**23),
    shift64=st.integers(-(2**29), 2**29),
)
def test_convex_hull_turns_are_exact_on_large_integers(pts, scale32, shift32, scale64, shift64):
    # Products of the int32 differences reach 2**40, which wraps in int32,
    # and those of the int64 ones 2**58; the chain on the int64 copy
    # computes both exactly.
    for dtype, scale, shift in ((np.int32, scale32, shift32), (np.int64, scale64, shift64)):
        big = pts * scale + shift
        hull = convex_hull(big.astype(dtype))
        assert hull.dtype == dtype
        assert np.array_equal(hull, old_convex_hull(big))


def test_convex_hull_limits_the_integer_span():
    n = 2**31 - 1
    # (n - 1, n - 2) lies 1/n below the line from (0, 0) to (n, n - 1):
    # a vertex that the cross products must not round away.
    pts = np.array([[n, n - 1], [0, 0], [n - 1, n - 2], [0, 0]])
    assert convex_hull(pts).tolist() == [[0, 0], [n - 1, n - 2], [n, n - 1]]
    with pytest.raises(ValueError, match=r"span less than 2\*\*31, got 2147483648"):
        convex_hull(pts + [[1, 0], [0, 0], [0, 0], [0, 0]])
    with pytest.raises(ValueError, match=r"span less than 2\*\*31"):
        convex_hull(np.array([[0, -(2**31)], [1, 2**31 - 1], [2, 0]], dtype=np.int32))


@st.composite
def _masks(draw, max_side=24):
    """Random masks: noise, or rectangles with rectangular holes cut out."""
    h = draw(st.integers(1, max_side))
    w = draw(st.integers(1, max_side))
    if draw(st.booleans()):
        return draw(arrays(np.bool_, (h, w)))
    m = np.zeros((h, w), dtype=bool)
    for value in (True, True, True, False, False):
        y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        y1, x1 = draw(st.integers(y0, h)), draw(st.integers(x0, w))
        m[y0:y1 + 1, x0:x1 + 1] = value
    return m


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mask=_masks().filter(lambda m: m.any()))
def test_hull_of_row_extremes_is_hull_of_boundary(mask):
    extremes = _row_extremes(mask)
    assert extremes.dtype == np.int64
    assert np.array_equal(convex_hull(extremes), convex_hull(boundary(mask)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mask=_masks())
def test_build_features_matches_boundary_path(mask):
    result, error = _outcome(build_features, mask)
    expected, expected_error = _outcome(old_build_features, mask)
    assert error == expected_error
    if expected is not None:
        corners, distances, area_px, poly_area = expected
        assert result.corners.dtype == corners.dtype
        assert np.array_equal(result.corners, corners)
        assert result.distances == distances
        assert result.sd == min(distances)
        assert result.area_px == area_px
        assert result.poly_area == poly_area


@st.composite
def _tied_masks(draw):
    """Equal-size blobs on a grid, so the size tie-break decides."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    bh, bw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pad = draw(st.integers(0, 3))
    m = np.zeros((pad + rows * (bh + 1) + pad, pad + cols * (bw + 1) + pad), dtype=bool)
    for r in range(rows):
        for c in range(cols):
            if draw(st.booleans()):
                y, x = pad + r * (bh + 1), pad + c * (bw + 1)
                # Same pixel count, different outline: a block or its transpose.
                fits = y + bw <= m.shape[0] and x + bh <= m.shape[1]
                if bh != bw and fits and draw(st.booleans()):
                    m[y:y + bw, x:x + bh] = True
                else:
                    m[y:y + bh, x:x + bw] = True
    return m


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mask=st.one_of(_masks(), _tied_masks()))
def test_isolate_object_matches_whole_raster_labelling(mask):
    result, error = _outcome(isolate_object, mask)
    expected, expected_error = _outcome(old_isolate_object, mask)
    assert error == expected_error
    if expected is not None:
        assert result.dtype == expected.dtype
        assert result.shape == expected.shape
        assert result.flags.c_contiguous
        assert not np.shares_memory(result, mask)
        assert np.array_equal(result, expected)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mask=st.one_of(_masks(), _tied_masks()))
def test_scipy_numbers_components_in_row_major_order(mask):
    # isolate_object takes the first largest label as the earliest of tied
    # components, which holds only while ndimage.label numbers them so.
    labels, count = ndimage.label(mask, structure=_FOUR_CONNECTED)
    components = flood_components(mask)
    assert count == len(components)
    for number, component in enumerate(components, start=1):
        ys, xs = np.array(component).T
        assert (labels[ys, xs] == number).all()


@pytest.mark.parametrize("pad", [0, 3])
def test_isolate_object_tie_goes_to_first_in_row_major_order(pad):
    # Two 4-pixel components; the vertical bar's first pixel comes first.
    m = np.zeros((8 + 2 * pad, 8 + 2 * pad), dtype=bool)
    m[pad + 1:pad + 5, pad + 5] = True
    m[pad + 6, pad:pad + 4] = True
    kept = isolate_object(m)
    assert np.array_equal(kept, old_isolate_object(m))
    assert kept[pad + 1:pad + 5, pad + 5].all()
    assert not kept[pad + 6].any()
