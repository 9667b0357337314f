import dataclasses
import math

import numpy as np
import pytest

from shapeid import ShapeClass, ShapeSpec, analytic_area, corpus, polygon_vertices, render

CENTER = (127.5, 127.5)


def fg_count(img):
    return int((img == 255).sum())


def test_square_count_exact():
    img = render(ShapeSpec.square(CENTER, 100), 256, 256)
    assert fg_count(img) == 10000


def test_rectangle_count_exact():
    img = render(ShapeSpec.rectangle(CENTER, 120, 80), 256, 256)
    assert fg_count(img) == 120 * 80


def test_hemisphere_count_within_two_percent():
    img = render(ShapeSpec.hemisphere((127.5, 102.5), 50), 256, 256)
    expected = math.pi * 50 * 50 / 2  # 3926.99
    assert abs(fg_count(img) - expected) / expected < 0.02


def test_cylinder_count_matches_brute_force_oracle():
    # Independent per-pixel membership test: rectangle body plus half
    # ellipse caps, evaluated with scalar math.
    cx, cy, w, h, b = 127.5, 127.5, 100.0, 120.0, 15.0
    spec = ShapeSpec.cylinder((cx, cy), w, h, b)
    img = render(spec, 256, 256)

    def inside(x, y):
        if abs(x - cx) <= w / 2 and abs(y - cy) <= h / 2:
            return True
        for edge, below in ((cy - h / 2, False), (cy + h / 2, True)):
            if ((x - cx) / (w / 2)) ** 2 + ((y - edge) / b) ** 2 <= 1.0:
                if (y >= edge) == below:
                    return True
        return False

    oracle = np.array(
        [[inside(x, y) for x in range(256)] for y in range(256)], dtype=bool
    )
    assert np.array_equal(img == 255, oracle)
    expected = w * h + math.pi * (w / 2) * b  # 14356.19
    assert abs(fg_count(img) - expected) / expected < 0.02


def test_translation_equivariance():
    spec = ShapeSpec.triangle(CENTER, 100, 100)
    base = render(spec, 256, 256)
    moved = render(dataclasses.replace(spec, center=(134.5, 114.5)), 256, 256)
    assert np.array_equal(np.roll(np.roll(base, 7, axis=1), -13, axis=0), moved)


def test_render_deterministic():
    spec = ShapeSpec.kite(CENTER, 160, 80, 0.375)
    assert np.array_equal(render(spec, 256, 256), render(spec, 256, 256))


def test_corpus_contract():
    entries = corpus()
    assert [name for name, _ in entries] == [
        "rectangle", "cylinder", "kite", "square",
        "rhombus", "hemisphere", "triangle", "cone",
    ]
    assert entries[3][1].kind is ShapeClass.SQUARE
    for _, spec in entries:
        assert fg_count(render(spec, 256, 256)) >= 500


def test_pixel_count_tracks_analytic_area():
    errors = []
    for r in (20, 35, 60):
        spec = ShapeSpec.hemisphere((127.5, 127.5 - r / 2), r)
        count = fg_count(render(spec, 256, 256))
        errors.append(abs(count - analytic_area(spec)) / analytic_area(spec))
    assert all(e < 0.02 for e in errors)
    assert errors[-1] <= errors[0] + 1e-3  # shrinks with scale

    for side in (40, 100, 200):
        spec = ShapeSpec.square(CENTER, side)
        count = fg_count(render(spec, 256, 256))
        assert abs(count - analytic_area(spec)) / analytic_area(spec) < 0.02


_CLOSED_FORM_AREAS = [
    (ShapeSpec.rectangle(CENTER, 120, 80), 120 * 80),
    (ShapeSpec.square(CENTER, 100), 100 * 100),
    # Diagonals 2 * 100 / hypot(1, 0.75) = 160 and 0.75 * 160 = 120.
    (ShapeSpec.rhombus(CENTER, 100, 0.75), 160 * 120 / 2),
    (ShapeSpec.kite(CENTER, 160, 80, 0.375), 160 * 80 / 2),
    (ShapeSpec.triangle(CENTER, 100, 100), 100 * 100 / 2),
    (ShapeSpec.hemisphere((127.5, 102.5), 50), math.pi * 50**2 / 2),
    (ShapeSpec.cylinder(CENTER, 100, 120, 15), 100 * 120 + math.pi * 50 * 15),
    (ShapeSpec.cone(CENTER, 110, 100, 12), 110 * 100 / 2 + math.pi * 55 * 12 / 2),
]


def test_analytic_area_formulas():
    for spec, expected in _CLOSED_FORM_AREAS:
        assert analytic_area(spec) == pytest.approx(expected, rel=1e-12), spec.kind
        # The area does not depend on where the shape sits.
        moved = dataclasses.replace(spec, center=(121.37, 130.91))
        assert analytic_area(moved) == pytest.approx(expected, rel=1e-12), spec.kind


def test_curved_solids_have_their_polygon_without_caps():
    cylinder = polygon_vertices(ShapeSpec.cylinder(CENTER, 100, 120, 15))
    assert cylinder.tolist() == [[77.5, 67.5], [177.5, 67.5], [177.5, 187.5], [77.5, 187.5]]
    # The cone's triangle sits bulge / 2 above the center of its box.
    cone = polygon_vertices(ShapeSpec.cone(CENTER, 110, 100, 12))
    assert cone.tolist() == [[127.5, 71.5], [182.5, 171.5], [72.5, 171.5]]
    with pytest.raises(ValueError, match="Hemisphere has no polygon vertices"):
        polygon_vertices(ShapeSpec.hemisphere((127.5, 102.5), 50))


def test_rotated_polygon_keeps_its_area():
    for spec, _ in _CLOSED_FORM_AREAS[:5]:
        upright = analytic_area(spec)
        for angle in range(5, 360, 5):
            rotated = dataclasses.replace(spec, rotation=float(angle))
            assert analytic_area(rotated) == pytest.approx(upright, rel=1e-12), rotated


@pytest.mark.parametrize(
    "spec,message",
    [
        (ShapeSpec.square(CENTER, 6), ">= 8"),
        (ShapeSpec.square((4, 127.5), 100), "margin"),
        (ShapeSpec.cylinder(CENTER, 100, 120, 20), "exceeds"),
        (ShapeSpec.cone(CENTER, 110, 100, 30), "exceeds"),
        (ShapeSpec.hemisphere((127.5, 100.5), 50, rotation=15.0), "rotation"),
        (ShapeSpec.cylinder(CENTER, 100, 120, 15, rotation=15.0), "rotation"),
        (ShapeSpec.cone(CENTER, 110, 100, 12, rotation=15.0), "rotation"),
        (ShapeSpec.square(CENTER, 100, bulge=5.0), "bulge"),
        (ShapeSpec.square(CENTER, 100, fg=0, bg=0), "differ"),
        (ShapeSpec.cylinder(CENTER, 100, 120, 0), "positive bulge"),
        # NaN fails every range test above, so each would pass unchecked.
        (ShapeSpec.cylinder(CENTER, 100, 120, math.nan), "^Cylinder bulge must be finite, got nan$"),
        (ShapeSpec.square(CENTER, 100, rotation=math.nan), "^Square rotation must be finite, got nan$"),
        (ShapeSpec.square(CENTER, 100, rotation=-math.inf), "^Square rotation must be finite, got -inf$"),
        (ShapeSpec.square((math.nan, 127.5), 100), "^Square center x must be finite, got nan$"),
        (ShapeSpec.square((127.5, math.inf), 100), "^Square center y must be finite, got inf$"),
        (ShapeSpec.square(CENTER, math.nan), "^Square side must be finite, got nan$"),
        (ShapeSpec.rectangle(CENTER, 100, math.inf), "^Rectangle height must be finite, got inf$"),
        (ShapeSpec.rhombus(CENTER, 100, math.nan), "^Rhombus diagonal_ratio must be finite, got nan$"),
    ],
)
def test_spec_validation_errors(spec, message):
    with pytest.raises(ValueError, match=message):
        render(spec, 256, 256)
