"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    add_salt,
    largest_component_mask,
    centroid_fan_area,
    order_counterclockwise,
    random_convex_quad,
    worst_corner_error,
)
from shapeid import (
    FeatureVector,
    ShapeClass,
    ShapeSpec,
    binarize,
    classify,
    classify_raster,
    corpus,
    isolate_object,
    load_pgm,
    pairwise_distances,
    polygon_area,
    polygon_vertices,
    render,
    write_pgm,
)
from shapeid.cli import main
from shapeid.geometry import features_of_spans
from shapeid.segment import foreground_spans

CENTER = (127.5, 127.5)
NAMES = ["rectangle", "cylinder", "kite", "square",
         "rhombus", "hemisphere", "triangle", "cone"]


def mask_features(mask):
    """Features of a one-component mask, read as a two-level image."""
    return features_of_spans(foreground_spans(mask.view(np.uint8), 1))


def pipeline_label(image):
    return classify_raster(image)[0].label.value.lower()


def test_criterion_1_corpus_correctness():
    start = time.perf_counter()
    labels = {name: pipeline_label(render(spec, 256, 256)) for name, spec in corpus()}
    elapsed = time.perf_counter() - start
    assert labels == {name: name for name in NAMES}
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS: corpus 8/8 correct in {elapsed:.2f} s")


def test_criterion_2_timing_ceiling(capsys):
    means = {}
    for name, spec in corpus():
        image = render(spec, 256, 256)
        timings = []
        for _ in range(10):
            t0 = time.perf_counter()
            verdict, _ = classify_raster(image)
            timings.append((time.perf_counter() - t0) * 1000.0)
            assert verdict.label.value.lower() == name
        means[name] = sum(timings) / len(timings)
    overall = sum(means.values()) / len(means)
    assert all(m < 637.5 for m in means.values())
    assert overall < 50.0

    # The CSV table surface itself: header, eight shape rows, average row.
    assert main(["bench", "--repeat", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "shape,size,mean_ms,min_ms,max_ms"
    assert [line.split(",")[0] for line in out[1:]] == NAMES + ["average"]
    print(
        f"ACCEPTANCE 2 PASS: per-shape mean <= {max(means.values()):.2f} ms"
        f" (ceiling 637.5), average {overall:.2f} ms (< 50)"
    )


def test_criterion_3_area_oracle():
    worst = 0.0
    for r in (40, 50, 80, 120):
        spec = ShapeSpec.hemisphere((127.5, 127.5 - r / 2), r)
        count = int((render(spec, 256, 256) == 255).sum())
        expected = math.pi * r * r / 2
        worst = max(worst, abs(count - expected) / expected)
    assert worst < 0.02
    for w, h in ((120, 80), (60, 40), (100, 100), (160, 44)):
        count = int((render(ShapeSpec.rectangle(CENTER, w, h), 256, 256) == 255).sum())
        assert count == w * h
    print(f"ACCEPTANCE 3 PASS: hemisphere areas within {100 * worst:.2f}% of half-disk;"
          " rectangle areas exact")


def test_criterion_4_corner_accuracy():
    worst = 0.0
    for rotation in (0.0, 30.0):
        for spec in (
            ShapeSpec.square(CENTER, 100, rotation),
            ShapeSpec.square(CENTER, 40, rotation),
            ShapeSpec.rectangle(CENTER, 120, 80, rotation),
            ShapeSpec.rectangle(CENTER, 160, 40, rotation),
            ShapeSpec.rhombus(CENTER, 100, 0.75, rotation),
            ShapeSpec.rhombus(CENTER, 60, 0.8, rotation),
            ShapeSpec.kite(CENTER, 160, 80, 0.375, rotation),
            ShapeSpec.kite(CENTER, 120, 60, 0.4, rotation),
        ):
            mask = isolate_object(binarize(render(spec, 256, 256), "otsu"))
            corners = mask_features(mask).corners
            err = worst_corner_error(corners, polygon_vertices(spec))
            worst = max(worst, err)
    assert worst <= 2.0
    print(f"ACCEPTANCE 4 PASS: worst corner error {worst:.3f} px (limit 2)")


snapped_points = st.lists(
    st.tuples(st.integers(0, 13), st.integers(0, 13)),
    min_size=4, max_size=4, unique=True,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pts=snapped_points, factor=st.sampled_from([0.8, 1.0, 1.05, 1.2, 1.3, 1.5]), scale=st.floats(1.0, 10.0))
def _scaled_labels_agree(pts, factor, scale):
    corners = order_counterclockwise(np.array(pts, dtype=float) * 9.0)
    d, sd = pairwise_distances(corners)
    x, y = corners[:, 0], corners[:, 1]
    poly = float(abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) / 2.0)
    base = FeatureVector(corners=corners, distances=tuple(d), sd=sd,
                         area_px=factor * poly, poly_area=poly)
    d2, sd2 = pairwise_distances(corners * scale)
    scaled = FeatureVector(corners=corners * scale, distances=tuple(d2), sd=sd2,
                           area_px=factor * poly * scale * scale,
                           poly_area=poly * scale * scale)
    assert classify(base).label is classify(scaled).label


def test_criterion_5_invariance_suite():
    # Translation of every corpus shape with the 2 px margin kept.
    for name, spec in corpus():
        for dx, dy in ((-20, -10), (15, 25), (-5, 30)):
            moved = dataclasses.replace(
                spec, center=(spec.center[0] + dx, spec.center[1] + dy)
            )
            assert pipeline_label(render(moved, 256, 256)) == name
    # Uniform square scaling.
    for side in (60, 100, 140, 200):
        img = render(ShapeSpec.square(CENTER, side), 256, 256)
        assert classify_raster(img)[0].label is ShapeClass.SQUARE
    # Classifier-level scale invariance as a property test.
    _scaled_labels_agree()
    print("ACCEPTANCE 5 PASS: translation, square scaling, and feature-scale"
          " invariance all hold")


def test_criterion_6_degenerate_rule_fidelity():
    for base, height in ((100, 100), (120, 90), (80, 96)):
        fv = mask_features(
            isolate_object(binarize(
                render(ShapeSpec.triangle(CENTER, base, height), 256, 256), "otsu"
            ))
        )
        assert fv.sd <= 3.0
        near = [x for x in fv.distances if abs(x - fv.sd) <= 0.05 * max(x, fv.sd)]
        assert len(near) == 1
        verdict = classify(fv)
        assert verdict.label is ShapeClass.TRIANGLE
    ratios = []
    for base, height, bulge in ((110, 100, 10), (110, 100, 12), (100, 80, 12)):
        assert bulge >= 0.1 * height
        verdict, fv = classify_raster(
            render(ShapeSpec.cone(CENTER, base, height, bulge), 256, 256)
        )
        assert verdict.label is ShapeClass.CONE
        ratio = fv.area_px / fv.poly_area
        assert ratio > 1.10
        ratios.append(ratio)
    print(f"ACCEPTANCE 6 PASS: triangles degenerate (sd <= 3, unique);"
          f" cone bulge ratios {['%.3f' % r for r in ratios]} all > 1.10")


def test_criterion_7_noise_tolerance():
    rng = np.random.default_rng(20240817)
    for name, spec in corpus():
        noisy = add_salt(render(spec, 256, 256), 0.005, rng)
        mask = isolate_object(binarize(noisy, "otsu"))
        assert np.array_equal(mask, largest_component_mask(binarize(noisy, "otsu")))
        verdict = classify(mask_features(mask))
        assert verdict.label.value.lower() == name
    print("ACCEPTANCE 7 PASS: 0.5% salt noise leaves all 8 labels correct")


def test_criterion_8_format_round_trip():
    rng = np.random.default_rng(5150)
    for i in range(1000):
        h = int(rng.integers(1, 33))
        w = int(rng.integers(1, 33))
        img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        binary = bool(i % 2)
        data = write_pgm(img, binary=binary)
        back = load_pgm(data)
        assert np.array_equal(back, img)
        assert write_pgm(back, binary=binary) == data
    print("ACCEPTANCE 8 PASS: 1000 random rasters round-trip bit-exactly (P2 and P5)")


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(500):
        quad = random_convex_quad(rng)
        a = polygon_area(quad)
        b = centroid_fan_area(quad)
        worst = max(worst, abs(a - b) / max(a, b))
    assert worst < 1e-9

    checked = 0
    while checked < 200:
        mask = rng.random((48, 48)) < 0.04
        y0, x0 = rng.integers(4, 24, size=2)
        hgt, wid = rng.integers(6, 20, size=2)
        mask[y0 : y0 + hgt, x0 : x0 + wid] = True
        if not mask.any():
            continue
        assert np.array_equal(isolate_object(mask), largest_component_mask(mask))
        checked += 1
    print(f"ACCEPTANCE 9 PASS: polygon area within {worst:.2e} of centroid-fan"
          " oracle; component isolation matches flood fill on 200 masks")
