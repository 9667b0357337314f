import math
import re

import numpy as np
import pytest

from helpers import centroid_fan_area, random_convex_quad, worst_corner_error
from shapeid import (
    ShapeSpec,
    binarize,
    boundary,
    convex_hull,
    extract_corners,
    fit_hemisphere,
    isolate_object,
    pairwise_distances,
    polygon_area,
    render,
)
from shapeid.geometry import features_of_spans
from shapeid.segment import foreground_spans

CENTER = (127.5, 127.5)


def features_of(spec, size=256):
    img = render(spec, size, size)
    mask = isolate_object(binarize(img, "otsu"))
    return features_of_spans(foreground_spans(mask.view(np.uint8), 1))


def test_corners_of_filled_square_mask():
    corners = extract_corners(boundary(np.ones((100, 100), dtype=bool)))
    expected = [(0, 0), (99, 0), (99, 99), (0, 99)]
    assert worst_corner_error(corners, np.array(expected)) <= 2.0


def test_triangle_corner_set_degenerates():
    fv = features_of(ShapeSpec.triangle(CENTER, 100, 100))
    assert fv.sd <= 3.0


def test_three_point_boundary_repeats_a_pick():
    pts = np.array([(0, 0), (10, 0), (5, 7)])
    corners = extract_corners(pts)
    assert len(corners) == 4
    assert {tuple(c) for c in corners} == {(0, 0), (10, 0), (5, 7)}
    _, sd = pairwise_distances(corners)
    assert sd == 0.0


def test_extract_corners_errors():
    with pytest.raises(ValueError, match="too few points"):
        extract_corners(np.array([(0, 0), (5, 5)]))
    with pytest.raises(ValueError, match="degenerate boundary"):
        extract_corners(np.array([(i, 2 * i) for i in range(5)]))


# Point sets off the (N, 2) integer contract of convex_hull and
# extract_corners.
OFF_CONTRACT = {
    # Truncated to int64, this square gave four (0, 0) corners.
    "fractional-floats": np.array([[0, 0], [0.5, 0], [0.5, 0.5], [0, 0.5]]),
    # Came back as a three-column "hull".
    "three-columns": np.array([[0, 0, 1], [5, 0, 2], [5, 5, 3], [0, 5, 4]]),
    "bool": np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=bool),
    # Failed inside numpy with a TypeError.
    "one-dimensional": np.arange(6),
    # Had no length, so extract_corners raised TypeError.
    "scalar": np.array(5),
}


@pytest.mark.parametrize("name", OFF_CONTRACT)
def test_points_off_the_integer_contract_raise(name):
    pts = OFF_CONTRACT[name]
    message = re.escape(f"integer coordinates, got {pts.dtype} of shape {pts.shape}")
    with pytest.raises(ValueError, match=message):
        convex_hull(pts)
    with pytest.raises(ValueError, match=message):
        extract_corners(pts)


def test_integer_contract_keeps_the_short_input_messages():
    assert convex_hull(np.zeros((0, 2), dtype=np.int64)).shape == (0, 2)
    with pytest.raises(ValueError, match="too few points: corner extraction needs >= 3, got 2"):
        extract_corners(np.array([[0.5, 0.5], [1.5, 0.5]]))


def test_pairwise_unit_square():
    d, sd = pairwise_distances(np.array([(0, 0), (1, 0), (1, 1), (0, 1)]))
    assert sorted(d) == pytest.approx([1, 1, 1, 1, math.sqrt(2), math.sqrt(2)])
    assert sd == 1.0


def test_pairwise_identical_points():
    d, sd = pairwise_distances(np.zeros((4, 2)))
    assert list(d) == [0.0] * 6
    assert sd == 0.0


def test_pairwise_kite_hand_values():
    corners = np.array([(0, 0), (60, -40), (160, 0), (60, 40)])
    d, sd = pairwise_distances(corners)
    assert sorted(d) == pytest.approx(
        [72.111, 72.111, 80.0, 107.703, 107.703, 160.0], abs=0.001
    )
    assert sd == pytest.approx(72.111, abs=0.001)


def test_polygon_area_values():
    assert polygon_area(np.array([(0, 0), (1, 0), (1, 1), (0, 1)])) == 1.0
    near_dup = np.array([(0, 0), (100, 0), (50, 80), (50.2, 80.3)])
    assert polygon_area(near_dup) == pytest.approx(4000.0)
    rhombus = np.array([(-80, 0), (0, -60), (80, 0), (0, 60)])
    assert polygon_area(rhombus) == pytest.approx(9600.0)


def test_polygon_area_degenerate():
    with pytest.raises(ValueError, match="degenerate polygon"):
        polygon_area(np.array([(0, 0), (0.1, 0.2), (50, 50), (50.3, 50.1)]))


def test_polygon_area_matches_centroid_fan():
    rng = np.random.default_rng(3)
    for _ in range(25):
        quad = random_convex_quad(rng)
        assert polygon_area(quad) == pytest.approx(
            centroid_fan_area(quad), rel=1e-12
        )


def test_fit_hemisphere_midpoint_and_radius():
    corners = np.array([(10, 50), (110, 50), (60, 100), (90, 90)])
    fit = fit_hemisphere(corners)
    assert fit is not None
    assert fit.center == (60.0, 50.0)
    assert fit.radius == 50.0
    assert fit.axis == "horizontal"


def test_fit_hemisphere_none_for_rotated_rhombus():
    theta = math.radians(30)
    local = np.array([(-80, 0), (0, -60), (80, 0), (0, 60)], dtype=float)
    rot = local @ np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    ) + 200.0
    deltas = np.abs(rot[:, None, :] - rot[None, :, :])
    off_diag = ~np.eye(4, dtype=bool)
    assert (deltas[off_diag].min(axis=-1) > 2).all()  # no pair aligned on x or y
    assert fit_hemisphere(rot) is None


def test_fit_hemisphere_end_to_end_radius():
    fv = features_of(ShapeSpec.hemisphere((127.5, 102.5), 50))
    fit = fit_hemisphere(fv.corners)
    assert fit is not None
    assert abs(fit.radius - 50.0) <= 3.0


def test_build_features_square_side_spread():
    fv = features_of(ShapeSpec.square(CENTER, 100))
    d = sorted(fv.distances)
    sides, diagonals = d[:4], d[4:]
    assert (max(sides) - min(sides)) / max(sides) < 0.05
    assert abs(diagonals[0] - diagonals[1]) / max(diagonals) < 0.05


def test_build_features_triangle_unique_minimum():
    fv = features_of(ShapeSpec.triangle(CENTER, 100, 100))
    assert fv.sd <= 3.0
    near = [x for x in fv.distances if abs(x - fv.sd) <= 0.05 * max(x, fv.sd)]
    assert len(near) == 1


def test_build_features_cone_bulge():
    fv = features_of(ShapeSpec.cone(CENTER, 110, 100, 12))
    assert fv.area_px / fv.poly_area > 1.05


def test_translation_invariance_of_corners():
    img = render(ShapeSpec.kite(CENTER, 160, 80, 0.375), 256, 256)
    pts = boundary(isolate_object(binarize(img, "otsu")))
    base = extract_corners(pts)
    shifted = extract_corners(pts + np.array([7, -13]))
    assert np.array_equal(shifted, base + np.array([7, -13]))
    d0, sd0 = pairwise_distances(base)
    d1, sd1 = pairwise_distances(shifted)
    assert np.array_equal(d0, d1)
    assert sd0 == sd1
    assert polygon_area(base) == polygon_area(shifted)


def test_scale_equivariance_of_distances():
    corners = np.array([(0, 0), (120, 0), (120, 80), (0, 80)], dtype=float)
    d0, sd0 = pairwise_distances(corners)
    for s in (0.5, 3.0, 7.25):
        d1, sd1 = pairwise_distances(corners * s)
        assert d1 == pytest.approx(d0 * s, rel=1e-12)
        assert sd1 == pytest.approx(sd0 * s, rel=1e-12)
        assert polygon_area(corners * s) == pytest.approx(
            polygon_area(corners) * s * s, rel=1e-12
        )


def test_extraction_deterministic():
    img = render(ShapeSpec.rhombus(CENTER, 100, 0.75, rotation=30), 256, 256)
    pts = boundary(isolate_object(binarize(img, "otsu")))
    assert np.array_equal(extract_corners(pts), extract_corners(pts))
