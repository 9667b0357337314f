"""``render`` on broadcast coordinates against the full-grid code it replaced.

``render`` evaluates every shape predicate on a column of y coordinates
and a row of x coordinates that span only the shape's bounding box,
instead of two ``(height, width)`` grids, and it fills every shape as a
convex polygon plus half-ellipse caps, its cap test multiplied out and its
polygon edges compared rather than subtracted.  The grid version, with its per-kind
branches and its divided cap test, is kept here verbatim as the oracle;
the two must agree bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from shapeid import ShapeClass, ShapeSpec, corpus, polygon_vertices, render
from shapeid.synth import _validate

_POLYGONS = ("rectangle", "square", "rhombus", "kite", "triangle")


def old_fill_convex(vertices, xs, ys):
    pos = np.ones(xs.shape, dtype=bool)
    neg = np.ones(xs.shape, dtype=bool)
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


def old_render(spec, width, height):
    """Rasterize ``spec`` into a ``(height, width)`` uint8 image."""
    if width < 1 or height < 1:
        raise ValueError(f"raster dimensions must be >= 1, got {width}x{height}")
    _validate(spec, width, height)
    ys, xs = np.mgrid[0:height, 0:width].astype(float)
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
        inside = old_fill_convex(verts, xs, ys)
        base_y = cy + spec.height / 2 - spec.bulge / 2
        inside |= _half_ellipse(xs, ys, cx, base_y, spec.base / 2, spec.bulge,
                                below=True)
    else:
        inside = old_fill_convex(polygon_vertices(spec), xs, ys)

    return np.where(inside, np.uint8(spec.fg), np.uint8(spec.bg))


def _assert_same_render(spec, width, height):
    new, old = render(spec, width, height), old_render(spec, width, height)
    assert new.dtype == old.dtype == np.uint8
    assert new.shape == old.shape == (height, width)
    assert np.array_equal(new, old)


@pytest.mark.parametrize("size", [48, 300, 1024])
def test_corpus_render_matches_full_grid(size):
    for _, spec in corpus(size, size):
        _assert_same_render(spec, size, size)


def test_non_square_raster_matches_full_grid():
    for _, spec in corpus(301, 200):
        _assert_same_render(dataclasses.replace(spec, fg=17, bg=230), 301, 200)


@pytest.mark.parametrize("size", [48, 300])
@pytest.mark.parametrize("name", _POLYGONS)
def test_rotated_polygon_render_matches_full_grid(name, size):
    base = dict(corpus(size, size))[name]
    cx, cy = base.center
    # Off the corpus centre, the bounding box's ends fall between pixels.
    for center in ((cx, cy), (cx + 0.37, cy - 0.21)):
        for angle in range(0, 90, 5):
            spec = dataclasses.replace(base, center=center, rotation=float(angle))
            _assert_same_render(spec, size, size)


@pytest.mark.parametrize("radius", [13, 26, 39, 52])
def test_hemisphere_at_an_integer_center_matches_full_grid(radius):
    # The divided cap test lights four pixels too many or too few here.
    for center in ((64.0, 40.0), (63.0, 41.0), (63.5, 40.0)):
        _assert_same_render(ShapeSpec.hemisphere(center, radius), 128, 128)


@pytest.mark.parametrize("size", [48, 300])
@pytest.mark.parametrize("fraction", [0.01, 0.04, 0.1, 0.15, 0.2, 0.25])
def test_curved_solids_at_other_bulges_match_full_grid(fraction, size):
    base = dict(corpus(size, size))
    for name, limit in (("cylinder", 0.15), ("cone", 0.25)):
        if fraction <= limit:
            spec = base[name]
            spec = dataclasses.replace(spec, bulge=fraction * spec.height)
            _assert_same_render(spec, size, size)
