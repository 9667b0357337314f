"""``foreground_spans`` against the two calls it stands for.

``classify_raster`` takes its spans from ``foreground_spans(image,
threshold)``, which for a two-level image under Otsu compares only the
foreground's bounding box with the threshold.  Whatever the image, view
or threshold, it must give what ``object_spans(binarize(image,
threshold))`` gives, or raise the same ``ValueError``.  Source mutants of
the bounding box must be caught by the same comparison, and the traced
peak of ``classify_raster`` on a 1024x1024 render stays below a full-size
mask beside the box.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import source_mutant
from shapeid import classify_raster, corpus, render
from shapeid import segment
from shapeid.segment import binarize, foreground_spans, object_spans

_BLOCK = segment._COMPARE_BLOCK

#: Shapes of one block, several blocks of whole rows, and rows wider than
#: a block, which are cut across blocks.
_SHAPES = [
    (1, 1), (1, 2), (2, 1), (5, 7), (9, 300), (256, 256), (300, 257),
    (65, 1024), (3, _BLOCK + 3), (2, 2 * _BLOCK + 1), (_BLOCK + 2, 1),
]


@st.composite
def _images(draw):
    """Two-level images holding rectangles, a single bright pixel, an
    object touching every edge, noise or foreground only in the last
    block, some with a pixel of a third level anywhere or in the last
    block, and constant images."""
    h, w = draw(st.sampled_from(_SHAPES))
    # The object is brighter or darker than the background.
    bg, fg = draw(st.lists(st.integers(0, 255), min_size=2, max_size=2, unique=True))
    image = np.full((h, w), bg, dtype=np.uint8)
    kind = draw(st.sampled_from(["boxes", "pixel", "edges", "noise", "last block", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "boxes":
        for _ in range(draw(st.integers(1, 3))):
            y0, y1 = sorted(rng.integers(0, h + 1, 2))
            x0, x1 = sorted(rng.integers(0, w + 1, 2))
            image[y0:y1 + 1, x0:x1 + 1] = fg
    elif kind == "pixel":
        image[rng.integers(h), rng.integers(w)] = fg
    elif kind == "edges":
        image[:] = fg
        image[1:-1, 1:-1] = bg
        image[h // 2, :] = fg
    elif kind == "noise":
        image[rng.random((h, w)) < draw(st.sampled_from([0.001, 0.3, 0.9]))] = fg
    elif kind == "last block":
        # The object only in the block the two-level test reads last.
        flat = image.reshape(-1)
        last = (flat.size - 1) // _BLOCK * _BLOCK
        flat[rng.integers(last, flat.size, draw(st.integers(1, 4)))] = fg
    third = draw(st.sampled_from(["none", "none", "anywhere", "last"]))
    if third != "none" and kind != "constant":
        at = rng.integers(image.size) if third == "anywhere" else image.size - 1
        image.reshape(-1)[at] = draw(st.integers(0, 255))
    return image


def _outcome(fn, image, threshold):
    """The spans ``fn`` returns as plain values, or its error message."""
    try:
        spans = fn(image, threshold)
    except ValueError as err:
        return "error", str(err)
    for part in spans[:3]:
        assert part.dtype == np.intp
    return tuple(part.tolist() for part in spans[:3]), spans.area


def _reference(image, threshold):
    return object_spans(binarize(image, threshold))


def _views(image):
    return image, image.astype(np.int64), image.T


_THRESHOLDS = st.one_of(st.just("otsu"), st.integers(0, 256), st.just("mean"))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(image=_images(), threshold=_THRESHOLDS)
def test_foreground_spans_match_the_mask_path(image, threshold):
    for view in _views(image):
        assert _outcome(foreground_spans, view, threshold) == _outcome(_reference, view, threshold)


def _box_cases():
    """Two-level images whose foreground bounds lie in different blocks:
    a rhombus widest in its middle rows, an object in the last block only,
    one cut across the blocks of rows wider than a block, and one touching
    every edge."""
    rhombus = render(dict(corpus(1024, 1024))["rhombus"], 1024, 1024)
    yield rhombus
    late = np.zeros((300, 257), dtype=np.uint8)
    late[-3:, 100:140] = 200
    yield late
    wide = np.full((3, 2 * _BLOCK + 5), 7, dtype=np.uint8)
    wide[0, _BLOCK - 4:_BLOCK + 9] = 9
    wide[1, 10:2 * _BLOCK] = 9
    yield wide
    framed = np.full((130, 700), 40, dtype=np.uint8)
    framed[[0, -1], :] = 90
    framed[:, [0, -1]] = 90
    yield framed


def test_foreground_spans_match_on_the_box_cases():
    for image in _box_cases():
        for view in _views(image):
            assert _outcome(foreground_spans, view, "otsu") == _outcome(_reference, view, "otsu")


# Mutation checks: each fragment of segment.py below is replaced by a
# plausible mistake in the foreground's bounding box, and the comparison
# above must then find a case that differs.

@pytest.mark.parametrize("old, new", [
    # the columns of the last row with foreground only
    ("cols = np.flatnonzero(img[band].max(axis=0) >= t)",
     "cols = np.flatnonzero(img[rows[-1]].reshape(1, -1).max(axis=0) >= t)"),
    # every block's row minima written to the first block's rows
    ("band = row_least[r:r + rows]", "band = row_least[:rows]"),
    # the box one column short on the right
    ("box = band, slice(cols[0], cols[-1] + 1)", "box = band, slice(cols[0], cols[-1])"),
])
def test_box_mutants_are_caught(old, new):
    mutant = source_mutant(segment, old, new)

    def mutant_outcome(image):
        try:
            return _outcome(mutant["foreground_spans"], image, "otsu")
        except (IndexError, AssertionError) as err:
            return "broken", repr(err)

    assert any(
        mutant_outcome(view) != _outcome(_reference, view, "otsu")
        for image in _box_cases()
        for view in _views(image)
    )


def _peak_mib(fn, *args):
    fn(*args)  # first call: let numpy set up its caches
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_two_level_render_peaks_below_a_full_mask():
    image = render(dict(corpus(1024, 1024))["square"], 1024, 1024)
    # The box mask (0.15 MiB) and one reversed copy of it in the row ends;
    # the 1 MiB full-size mask took the peak to 1.32 MiB.
    assert _peak_mib(classify_raster, image) < 0.75
