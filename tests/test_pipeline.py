import contextlib
import io
import json

import numpy as np
import pytest

from shapeid import StageError, classify_raster, corpus, render, write_pgm
from shapeid.cli import main


def _line():
    img = np.zeros((16, 16), dtype=np.uint8)
    img[5, 4:7] = 255
    return img


@pytest.mark.parametrize(
    "image, threshold, stage",
    [
        (np.full((16, 16), 300, dtype=np.uint16), "otsu", "input"),
        (np.full((16, 16), -1, dtype=np.int16), "otsu", "input"),
        (np.zeros((16, 16, 3), dtype=np.uint8), "otsu", "input"),
        (np.zeros((16, 16), dtype=float), "otsu", "input"),
        (np.zeros((16, 16), dtype=np.uint8), "otsu", "segmentation"),
        (_line(), 300, "segmentation"),
        (_line(), "otsu", "feature extraction"),
        (_line(), None, "segmentation"),
        (_line(), [1], "segmentation"),
        (_line(), float("inf"), "segmentation"),
    ],
    ids=["uint16-300", "negative-int16", "rgb", "float", "flat",
         "fixed-300", "three-pixel-line", "fixed-none", "fixed-list", "fixed-inf"],
)
def test_stage_error_names_the_stage(image, threshold, stage):
    with pytest.raises(StageError) as info:
        classify_raster(image, threshold=threshold)
    err = info.value
    assert isinstance(err, ValueError)
    assert err.stage == stage
    assert str(err).startswith(f"{stage}: ")


@pytest.mark.parametrize("dtype", [np.int16, np.uint16, np.int64])
@pytest.mark.parametrize("threshold", ["otsu", 128])
def test_in_range_integer_dtypes_classify_like_uint8(dtype, threshold):
    for _, spec in corpus():
        image = render(spec, 256, 256)
        verdict, features = classify_raster(image.astype(dtype), threshold=threshold)
        expected, expected_features = classify_raster(image, threshold=threshold)
        assert verdict == expected
        assert np.array_equal(features.corners, expected_features.corners)
        assert features.distances == expected_features.distances


def test_evidence_keys_same_for_every_label():
    unknown = np.zeros((128, 128), dtype=np.uint8)
    unknown[20:100, 20:50] = 255
    unknown[70:100, 20:110] = 255
    images = [render(spec, 256, 256) for _, spec in corpus()] + [unknown]
    verdicts = [classify_raster(img)[0] for img in images]
    assert len({v.label for v in verdicts}) == 9
    assert len({frozenset(v.evidence) for v in verdicts}) == 1


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_cli_json_matches_library(name, tmp_path):
    image = render(dict(corpus())[name], 256, 256)
    path = tmp_path / f"{name}.pgm"
    path.write_bytes(write_pgm(image))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["classify", "--json", str(path)]) == 0
    report = json.loads(out.getvalue())

    verdict, features = classify_raster(image)
    assert report["label"] == verdict.label.value
    assert report["evidence"] == verdict.evidence["rules"]
    assert report["features"]["area_px"] == features.area_px


def _object(pixels):
    img = np.zeros((16, 16), dtype=np.uint8)
    for x, y in pixels:
        img[y, x] = 255
    return img


_TOO_FEW = "feature extraction: too few points: corner extraction needs >= 3, got {}"
_COLLINEAR = "feature extraction: degenerate boundary: all points collinear"


@pytest.mark.parametrize(
    "pixels, message",
    [
        ([(4, 5)], _TOO_FEW.format(1)),
        ([(4, 5), (5, 5)], _TOO_FEW.format(2)),
        ([(4, 5), (4, 6)], _TOO_FEW.format(2)),
        ([(4 + i, 5) for i in range(3)], _COLLINEAR),
        ([(4 + i, 5) for i in range(4)], _COLLINEAR),
        ([(3 + i, 5) for i in range(10)], _COLLINEAR),
        ([(4, 5 + i) for i in range(3)], _COLLINEAR),
        ([(4, 5 + i) for i in range(4)], _COLLINEAR),
        ([(4, 3 + i) for i in range(10)], _COLLINEAR),
    ],
    ids=["1px", "2px-horizontal", "2px-vertical", "3px-horizontal",
         "4px-horizontal", "10px-horizontal", "3px-vertical", "4px-vertical",
         "10px-vertical"],
)
def test_tiny_object_error_message(pixels, message):
    with pytest.raises(StageError) as info:
        classify_raster(_object(pixels))
    assert str(info.value) == message


def test_two_by_two_block_is_four_corners():
    verdict, features = classify_raster(_object([(4, 5), (5, 5), (4, 6), (5, 6)]))
    assert verdict.label.value == "Unknown"
    assert features.corners.tolist() == [[4, 5], [5, 5], [5, 6], [4, 6]]
    assert features.area_px == 4
    assert features.poly_area == 1.0
