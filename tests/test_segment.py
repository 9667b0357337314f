import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import shapeid
from helpers import largest_component_mask
from shapeid import (
    ShapeSpec,
    area,
    binarize,
    boundary,
    isolate_object,
    otsu_threshold,
    render,
)
from shapeid import segment

SRC = str(Path(shapeid.__file__).resolve().parents[1])


def test_binarize_fixed_threshold():
    img = np.array([[0, 255], [255, 0]], dtype=np.uint8)
    assert binarize(img, 128).tolist() == [[False, True], [True, False]]


def test_binarize_fixed_is_monotone():
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
    low, mid, high = binarize(img, 50), binarize(img, 120), binarize(img, 200)
    assert not (mid & ~low).any()
    assert not (high & ~mid).any()


@pytest.mark.parametrize("t", [-1, 256, 255.5, -0.5, math.nan, math.inf])
def test_binarize_fixed_out_of_range(t):
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        binarize(np.zeros((2, 2), dtype=np.uint8), t)


@pytest.mark.parametrize(
    "t", [127.9, 127.0, 126.5, 0.5, 254.2, 255.0, np.float32(127.5), np.float64(0.25), Fraction(255, 2), np.uint8(128)]
)
def test_binarize_fixed_real_threshold_is_intensity_at_least_t(t):
    # A fractional threshold used to be truncated: 127.9 marked 127.
    img = np.array([[0, 1, 126, 127], [128, 129, 254, 255]], dtype=np.uint8)
    assert np.array_equal(binarize(img, t), img >= t)
    assert np.array_equal(binarize(img.astype(np.int64), t), img >= t)


@pytest.mark.parametrize("t", [True, False, np.bool_(True), b"12", bytearray(b"12"), np.array(128), None, [1]])
def test_binarize_fixed_threshold_must_be_a_real_number(t):
    # bool and bytes used to be read as the integers they convert to.
    with pytest.raises(ValueError, match="is not an integer"):
        binarize(np.zeros((2, 2), dtype=np.uint8), t)


def test_binarize_fixed_checks_the_image():
    # The fixed threshold used to compare any array and return a mask.
    with pytest.raises(ValueError, match="expected integer intensities, got dtype float64"):
        binarize(np.array([[0.5, 200.7]]), 100)


@pytest.mark.parametrize("stage", [isolate_object, boundary, area])
def test_mask_stages_reject_a_mask_that_is_not_2d(stage):
    with pytest.raises(ValueError, match=r"expected a 2-D mask, got shape \(4, 5, 3\)"):
        stage(np.ones((4, 5, 3), dtype=bool))


def test_otsu_recovers_render_foreground():
    spec = ShapeSpec.square((127.5, 127.5), 100)
    img = render(spec, 256, 256)
    assert np.array_equal(binarize(img, "otsu"), img == 255)
    dim = render(ShapeSpec.square((127.5, 127.5), 100, fg=200, bg=30), 256, 256)
    assert np.array_equal(binarize(dim, "otsu"), dim == 200)


def test_otsu_threshold_value_bimodal():
    img = np.array([20] * 60 + [200] * 40, dtype=np.uint8).reshape(10, 10)
    # Any split between the modes ties; ties resolve to the lowest.
    assert otsu_threshold(img) == 21


def test_otsu_degenerate_histogram():
    with pytest.raises(ValueError, match="degenerate histogram"):
        binarize(np.full((4, 4), 7, dtype=np.uint8), "otsu")


def test_isolate_single_component_is_identity():
    mask = np.zeros((10, 10), dtype=bool)
    mask[2:7, 3:8] = True
    out = isolate_object(mask)
    assert np.array_equal(out, mask)
    assert out is not mask


def test_isolate_removes_speckles():
    mask = np.zeros((40, 40), dtype=bool)
    mask[14:26, 14:26] = True
    speckles = [(2 + 3 * (i % 10), 2 + 3 * (i // 10)) for i in range(30)]
    for x, y in speckles:
        mask[y, x] = True
    out = isolate_object(mask)
    expect = np.zeros_like(mask)
    expect[14:26, 14:26] = True
    assert np.array_equal(out, expect)
    assert np.array_equal(out, largest_component_mask(mask))


def _isolate_cases():
    one = np.zeros((10, 12), dtype=bool)
    one[2:7, 3:8] = True
    # Several components whose bounding box is the whole raster.
    whole = np.zeros((9, 11), dtype=bool)
    whole[0, 0:3] = True
    whole[3:7, 4:8] = True
    whole[8, 7:11] = True
    whole[5, 0] = True
    # Several components inside a box that leaves a margin.
    partial = np.zeros((12, 14), dtype=bool)
    partial[2:5, 3:6] = True
    partial[7:10, 6:11] = True
    partial[9, 3] = True
    return {"one_component": one, "whole_box": whole, "partial_box": partial}


_ISOLATE_FORMS = {
    "bool": lambda m: m,
    "uint8": lambda m: m.astype(np.uint8) * 7,
    "transposed": lambda m: m.T,
}


@pytest.mark.parametrize("form", sorted(_ISOLATE_FORMS))
@pytest.mark.parametrize("case", sorted(_isolate_cases()))
def test_isolate_returns_a_fresh_contiguous_bool_mask(case, form):
    mask = _ISOLATE_FORMS[form](_isolate_cases()[case])
    out = isolate_object(mask)
    assert out.dtype == bool
    assert out.shape == mask.shape
    assert out.flags.c_contiguous
    assert not np.shares_memory(out, mask)
    assert np.array_equal(out, largest_component_mask(mask))


def test_isolate_tie_breaks_to_first_row_major():
    mask = np.zeros((3, 5), dtype=bool)
    mask[0, 0:2] = True
    mask[2, 3:5] = True
    out = isolate_object(mask)
    expect = np.zeros_like(mask)
    expect[0, 0:2] = True
    assert np.array_equal(out, expect)


def test_importing_shapeid_loads_no_scipy():
    # Components are labelled by their row runs in numpy; scipy serves
    # the tests as an oracle only.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = "import shapeid, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_isolate_empty_mask():
    with pytest.raises(ValueError, match="no object"):
        isolate_object(np.zeros((4, 4), dtype=bool))


def test_boundary_three_by_three():
    pts = boundary(np.ones((3, 3), dtype=bool))
    assert len(pts) == 8
    assert (1, 1) not in {tuple(p) for p in pts}


def test_boundary_single_pixel():
    assert boundary(np.ones((1, 1), dtype=bool)).tolist() == [[0, 0]]


def test_boundary_filled_square_perimeter():
    pts = boundary(np.ones((100, 100), dtype=bool))
    assert len(pts) == 4 * 100 - 4


def test_boundary_subset_of_foreground_and_scan_ordered():
    img = render(ShapeSpec.triangle((127.5, 127.5), 100, 100), 256, 256)
    mask = img == 255
    pts = boundary(mask)
    assert all(mask[y, x] for x, y in pts)
    keys = [(y, x) for x, y in pts]
    assert keys == sorted(keys)


def test_area_counts():
    mask = np.zeros((12, 12), dtype=bool)
    mask[1:11, 1:11] = True
    assert area(mask) == 100
    assert area(np.zeros((5, 5), dtype=bool)) == 0


def test_area_hemisphere_matches_half_disk():
    img = render(ShapeSpec.hemisphere((127.5, 102.5), 50), 256, 256)
    count = area(isolate_object(binarize(img, "otsu")))
    expected = math.pi * 50 * 50 / 2
    assert abs(count - expected) / expected < 0.02


def test_isolate_never_grows_area():
    rng = np.random.default_rng(11)
    for _ in range(20):
        mask = rng.random((24, 24)) < 0.35
        if not mask.any():
            continue
        out = isolate_object(mask)
        assert area(out) <= area(mask)
        # Equality exactly when the mask already had a single component.
        assert (area(out) == area(mask)) == np.array_equal(out, mask)


@pytest.mark.parametrize(
    "image, message",
    [
        (np.array([[0.6, 200.7]]), "expected integer intensities, got dtype float64"),
        (np.array([[0, 300]], dtype=np.int16), r"intensities must lie in \[0, 255\]"),
        (np.array([[-1, 200]]), r"intensities must lie in \[0, 255\]"),
        (np.array([0, 200], dtype=np.int64), "expected a non-empty 2-D image"),
        (np.array([[False, True]]), "expected integer intensities, got dtype bool"),
        (np.array([0, 200], dtype=np.uint8), "expected a non-empty 2-D image"),
        (np.tile(np.array([0, 200], dtype=np.uint8), (4, 5, 3)), "expected a non-empty 2-D image"),
        (np.array([[-1, 100]], dtype=np.int8), r"intensities must lie in \[0, 255\]"),
    ],
)
def test_otsu_rejects_off_contract_input(image, message):
    # Every input must pass check_image, uint8 included.
    with pytest.raises(ValueError, match=message):
        otsu_threshold(image)
    with pytest.raises(ValueError, match=message):
        binarize(image, "otsu")


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint16, np.uint64])
def test_otsu_in_range_integers_match_uint8_copy(dtype):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 128 if dtype == np.int8 else 256, size=(17, 9)).astype(np.uint8)
    assert otsu_threshold(img.astype(dtype)) == otsu_threshold(img)


_VIEWS = {
    "contiguous": lambda a: a,
    "rows reversed": lambda a: a[::-1],
    "columns reversed": lambda a: a[:, ::-1],
    "transposed": lambda a: a.T,
    "strided": lambda a: a[::2, ::3],
    "one column": lambda a: a[:, :1],
    "one row": lambda a: a[:1],
}


@pytest.mark.parametrize("view", sorted(_VIEWS))
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int8, np.int64])
def test_row_maxima_match_max_over_rows(dtype, view):
    high = 128 if dtype == np.int8 else 256
    image = _VIEWS[view](np.random.default_rng(5).integers(0, high, (37, 53)).astype(dtype))
    expected = image.max(axis=1)
    found = segment._row_maxima(image)
    assert found.dtype == expected.dtype
    assert np.array_equal(found, expected)
