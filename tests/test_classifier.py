import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import order_counterclockwise
from shapeid import (
    FeatureVector,
    ShapeClass,
    Tolerances,
    classify,
    explain,
    pairwise_distances,
    polygon_area,
)


def make_features(corners, area_px=None, area_factor=None, poly=None):
    pts = order_counterclockwise(np.asarray(corners, dtype=float))
    d, sd = pairwise_distances(pts)
    if poly is None:
        poly = polygon_area(pts)
    if area_px is None:
        area_px = poly if area_factor is None else area_factor * poly
    return FeatureVector(
        corners=pts, distances=tuple(d), sd=sd, area_px=area_px, poly_area=poly
    )


def test_square_rule():
    fv = make_features([(0, 0), (100, 0), (100, 100), (0, 100)], area_px=10000)
    verdict = classify(fv)
    assert verdict.label is ShapeClass.SQUARE
    text = explain(verdict)
    assert "sides equal" in text
    assert "diagonals equal" in text


def test_rhombus_rule():
    fv = make_features([(-80, 0), (0, -60), (80, 0), (0, 60)], area_px=9600)
    assert classify(fv).label is ShapeClass.RHOMBUS


def test_hemisphere_rule():
    # Flat-edge pair separated by 100 plus two arc points.
    fv = make_features([(10, 50), (110, 50), (85, 93), (35, 93)], area_px=3927)
    verdict = classify(fv)
    assert verdict.label is ShapeClass.HEMISPHERE
    text = explain(verdict)
    assert "50.0" in text  # fitted radius
    assert "3927" in text or "3926.99" in str(verdict.evidence["hemisphere"])


def _degenerate_triangle_features(area_factor):
    corners = np.array([(0.0, 0.0), (0.5, 0.87), (100.0, 0.0), (50.0, 86.6)])
    distances = (1.0, 100.0, 100.0, 100.0, 86.6, 86.6)
    poly = 4330.0
    return FeatureVector(
        corners=order_counterclockwise(corners),
        distances=distances,
        sd=1.0,
        area_px=area_factor * poly,
        poly_area=poly,
    )


def test_infinite_pixel_area_is_labelled_as_a_huge_one():
    # +inf used to pass every area tolerance (inf <= eps * inf), so these
    # corners of a 100x50 rectangle came back Hemisphere.
    corners = [(0, 0), (100, 0), (100, 50), (0, 50)]
    huge = classify(make_features(corners, area_px=1e300, poly=5000.0))
    infinite = classify(make_features(corners, area_px=math.inf, poly=5000.0))
    assert huge.label is infinite.label is ShapeClass.CYLINDER


def test_degenerate_triangle_rule():
    assert classify(_degenerate_triangle_features(1.0)).label is ShapeClass.TRIANGLE


def test_degenerate_cone_rule():
    assert classify(_degenerate_triangle_features(1.18)).label is ShapeClass.CONE


def test_rectangle_rule():
    fv = make_features([(0, 0), (120, 0), (120, 80), (0, 80)], area_px=9600)
    assert classify(fv).label is ShapeClass.RECTANGLE


def test_cylinder_rule():
    fv = make_features([(0, 0), (120, 0), (120, 80), (0, 80)], area_factor=1.16)
    assert classify(fv).label is ShapeClass.CYLINDER


def test_kite_rule():
    fv = make_features([(0, 0), (60, -40), (160, 0), (60, 40)], area_px=6400)
    assert classify(fv).label is ShapeClass.KITE


def test_unknown_lists_every_rule():
    fv = make_features([(0, 0), (100, 0), (160, 120), (5, 70)], area_px=12000)
    verdict = classify(fv)
    assert verdict.label is ShapeClass.UNKNOWN
    text = explain(verdict)
    assert text.count("rule ") == 4
    assert text.count("fail") == 4


def test_bulge_ratio_always_in_evidence():
    fv = make_features([(0, 0), (100, 0), (100, 100), (0, 100)])
    assert classify(fv).evidence["bulge_ratio"] == pytest.approx(1.0)


def test_classify_deterministic():
    fv = make_features([(0, 0), (120, 0), (120, 80), (0, 80)], area_px=9600)
    a, b = classify(fv), classify(fv)
    assert a.label is b.label
    assert a.evidence == b.evidence


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerances(rel_eps=0.6)
    with pytest.raises(ValueError):
        Tolerances(area_eps=0.0)
    with pytest.raises(ValueError):
        Tolerances(degen_eps=-1.0)


@pytest.mark.parametrize("field", ["degen_eps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_tolerances_reject_non_finite(field, value):
    # NaN compares false against every bound, so it used to slip through
    # and turn corpus triangles, cones and hemispheres into Unknown.
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        Tolerances(**{field: value})


def test_monotone_degeneracy():
    # sd = 5, all other distances large; raising degen_eps may only move
    # the verdict into the degenerate branch, never out of it.
    fv = make_features([(0, 0), (3, 4), (100, 0), (50, 80)], area_factor=1.0)
    assert fv.sd == pytest.approx(5.0)
    seen_degenerate = False
    for eps in (1.0, 3.0, 5.0, 10.0, 50.0):
        label = classify(fv, Tolerances(degen_eps=eps)).label
        if seen_degenerate:
            assert label in (ShapeClass.TRIANGLE, ShapeClass.CONE)
        elif label in (ShapeClass.TRIANGLE, ShapeClass.CONE):
            seen_degenerate = True
    assert seen_degenerate


# Coordinates snapped to multiples of nine keep every alignment decision
# unambiguous: axis deltas are either exactly zero or at least nine pixels,
# so scaling by s >= 1 never flips a comparison against the fixed pixel
# thresholds.
snapped_points = st.lists(
    st.tuples(st.integers(0, 13), st.integers(0, 13)),
    min_size=4,
    max_size=4,
    unique=True,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    pts=snapped_points,
    factor=st.sampled_from([0.8, 1.0, 1.05, 1.2, 1.3, 1.5]),
    scale=st.floats(1.0, 10.0),
)
def test_scale_invariance_of_labels(pts, factor, scale):
    corners = order_counterclockwise(np.array(pts, dtype=float) * 9.0)
    d, sd = pairwise_distances(corners)
    x, y = corners[:, 0], corners[:, 1]
    poly = float(abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) / 2.0)
    base = FeatureVector(
        corners=corners, distances=tuple(d), sd=sd,
        area_px=factor * poly, poly_area=poly,
    )
    scaled_corners = corners * scale
    d2, sd2 = pairwise_distances(scaled_corners)
    scaled = FeatureVector(
        corners=scaled_corners, distances=tuple(d2), sd=sd2,
        area_px=factor * poly * scale * scale, poly_area=poly * scale * scale,
    )
    assert classify(base).label is classify(scaled).label


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pts=snapped_points, dx=st.integers(-500, 500), dy=st.integers(-500, 500))
def test_translation_invariance_of_labels(pts, dx, dy):
    corners = order_counterclockwise(np.array(pts, dtype=float) * 9.0)
    d, sd = pairwise_distances(corners)
    x, y = corners[:, 0], corners[:, 1]
    poly = float(abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) / 2.0)
    base = FeatureVector(
        corners=corners, distances=tuple(d), sd=sd, area_px=poly, poly_area=poly
    )
    moved = FeatureVector(
        corners=corners + np.array([dx, dy], dtype=float),
        distances=tuple(d), sd=sd, area_px=poly, poly_area=poly,
    )
    assert classify(base).label is classify(moved).label


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pts=snapped_points, factor=st.floats(0.5, 2.0))
def test_every_feature_vector_gets_one_label(pts, factor):
    corners = order_counterclockwise(np.array(pts, dtype=float) * 9.0)
    d, sd = pairwise_distances(corners)
    x, y = corners[:, 0], corners[:, 1]
    poly = float(abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) / 2.0)
    fv = FeatureVector(
        corners=corners, distances=tuple(d), sd=sd,
        area_px=factor * poly, poly_area=poly,
    )
    assert classify(fv).label in ShapeClass
