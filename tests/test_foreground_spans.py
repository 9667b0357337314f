"""``foreground_spans`` against the two calls it stands for.

``classify_raster`` takes its spans from ``foreground_spans(image,
threshold)``, which under every threshold compares only the foreground's
bounding box with the threshold.  Whatever the image, view or threshold,
it must give what ``object_spans(binarize(image, threshold))`` gave
before that route was shared, or raise the same ``ValueError``; those
two functions, and the ones they called that have since been rewritten,
are kept below as the oracle, verbatim but for the row minima the old
``_two_level`` gathered for ``foreground_spans`` alone.  Source mutants
of the bounding box must be caught by the same comparison, and the
traced peak of ``classify_raster`` on a 1024x1024 render stays below a
full-size mask beside the box, under Otsu and under a fixed threshold.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import source_mutant
from shapeid import classify_raster, corpus, render
from shapeid import segment
from shapeid.pgm import check_image
from shapeid.segment import _box_spans, _histogram_threshold, check_mask, foreground_spans

_BLOCK = segment._COMPARE_BLOCK


def old_two_level(img: np.ndarray, out: np.ndarray | None = None) -> int | None:
    """Otsu's threshold ``lo + 1`` of a checked image whose every pixel is
    its minimum ``lo`` or its maximum ``hi``, else ``None``.

    The image is read in blocks of at most ``_BLOCK`` pixels, whole
    rows where they fit.  Each block less ``lo + 1`` is written, wrapping
    modulo 256, to ``uint8`` memory: the block's place in ``out`` if given
    (a C-contiguous array of the image's shape), else a scratch buffer of
    one block.  There ``lo`` reads 255, ``hi`` reads ``hi - lo - 1`` and
    any third level less, so a block has two levels exactly when its least
    value is at least ``hi - lo - 1``; the test stops in the first block
    holding a third level.  No copy of the image is made.  A single level
    has no two classes to separate, so it raises ``ValueError``.
    """
    lo, hi = int(img.min()), int(img.max())
    if lo == hi:
        raise ValueError("degenerate histogram: single distinct intensity")
    floor = hi - lo - 1
    height, width = img.shape
    rows, cols = max(1, _BLOCK // width), min(width, _BLOCK)
    mem = np.empty(min(img.size, _BLOCK), dtype=np.uint8) if out is None else out.reshape(-1)
    for r in range(0, height, rows):
        for c in range(0, width, cols):
            block = img[r:r + rows, c:c + cols]
            at = 0 if out is None else r * width + c
            flat = mem[at:at + block.size]
            s = flat.reshape(block.shape)
            if block.dtype != np.uint8:
                # Subtracting from an int64 block into uint8 memory would
                # cast through a buffer; the copy casts in place.
                np.copyto(s, block, casting="unsafe")
                block = s
            np.subtract(block, lo + 1, out=s)
            block_least = flat.min()
            if block_least < floor:
                return None
    return lo + 1


def old_fixed_threshold(threshold) -> int | None:
    """The fixed threshold ``threshold`` names, or ``None`` for Otsu's."""
    if isinstance(threshold, str):
        if threshold != "otsu":
            raise ValueError(f"unknown threshold method {threshold!r}")
        return None
    t = int(threshold)
    if not 0 <= t <= 255:
        raise ValueError(f"fixed threshold {t} outside [0, 255]")
    return t


def old_binarize(image: np.ndarray, threshold="otsu") -> np.ndarray:
    """Foreground mask: ``intensity >= t`` with ``t`` fixed or from Otsu.

    The image must pass ``pgm.check_image`` for either method.  With
    Otsu, a two-level image is tested block by block in the memory of the
    mask returned, which then takes the foreground in place.
    """
    img = check_image(image)
    t = old_fixed_threshold(threshold)
    if t is None:
        mask = np.empty(img.shape, dtype=bool)
        # lo reads 255 in the wrapped differences, every other level less.
        if old_two_level(img, mask.view(np.uint8)) is not None:
            return np.not_equal(mask.view(np.uint8), 255, out=mask)
        # A third level: the half-written mask is dropped before the pair
        # table is made.
        del mask
        t = _histogram_threshold(img)
    return img >= t


def old_foreground_box(m: np.ndarray) -> tuple[np.ndarray, tuple[slice, slice]]:
    """The non-empty rows of ``m`` and its foreground's bounding box."""
    rows = np.flatnonzero(m.any(axis=1))
    if len(rows) == 0:
        raise ValueError("no object: mask has no foreground pixels")
    top, bottom = rows[0], rows[-1] + 1
    cols = np.flatnonzero(m[top:bottom].any(axis=0))
    return rows, (slice(top, bottom), slice(cols[0], cols[-1] + 1))


def old_object_spans(mask: np.ndarray) -> segment.Spans:
    """``Spans`` of the largest 4-connected foreground component, the
    object ``isolate_object`` keeps.

    The foreground is proved to be one component, without labelling it,
    when its bounding box has no empty row, every row is one run, and each
    run overlaps the columns of the next.  An empty row rejects the proof
    before the rows are read.  Otherwise the box is labelled by its row
    runs (``_largest_runs``), the kept runs are reduced to one span per
    row, and their lengths are summed to the pixel total; no label raster
    or kept mask is made.
    """
    m = check_mask(mask)
    rows, box = old_foreground_box(m)
    return _box_spans(m[box], rows, box)

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
    return old_object_spans(old_binarize(image, threshold))


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
            # Otsu's, and the object's level as a fixed threshold.
            for threshold in ("otsu", int(image.max())):
                assert _outcome(foreground_spans, view, threshold) == _outcome(_reference, view, threshold)


# Mutation checks: each fragment of segment.py below is replaced by a
# plausible mistake in the foreground's bounding box, and the comparison
# above must then find a case that differs, under Otsu and, where the
# fragment is on its route, under a fixed threshold.

@pytest.mark.parametrize("old, new, fixed_sees_it", [
    # the columns of the last row with foreground only
    ("cols = (a[band].max(axis=0) >= t).nonzero()[0]",
     "cols = (a[rows[-1]].reshape(1, -1).max(axis=0) >= t).nonzero()[0]", True),
    # every block's row minima written to the first block's rows; a fixed
    # threshold never runs the two-level pass
    ("band = row_least[r:r + rows]", "band = row_least[:rows]", False),
    # the box one column short on the right
    ("return rows, (band, slice(cols[0], cols[-1] + 1))",
     "return rows, (band, slice(cols[0], cols[-1]))", True),
])
def test_box_mutants_are_caught(old, new, fixed_sees_it):
    mutant = source_mutant(segment, old, new)

    def mutant_outcome(image, threshold):
        try:
            return _outcome(mutant["foreground_spans"], image, threshold)
        except (IndexError, AssertionError) as err:
            return "broken", repr(err)

    def caught(fixed):
        # The object's level as the fixed threshold, as above.
        cases = [(view, int(image.max()) if fixed else "otsu") for image in _box_cases() for view in _views(image)]
        return any(mutant_outcome(view, t) != _outcome(_reference, view, t) for view, t in cases)

    assert caught(fixed=False)
    if fixed_sees_it:
        assert caught(fixed=True)


def _peak_mib(fn, *args):
    fn(*args)  # first call: let numpy set up its caches
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("threshold", ["otsu", 128])
def test_two_level_render_peaks_below_a_full_mask(threshold):
    image = render(dict(corpus(1024, 1024))["square"], 1024, 1024)
    # The box mask (0.15 MiB) and one reversed copy of it in the row ends;
    # the 1 MiB full-size mask took the peak to 1.32 MiB.
    assert _peak_mib(classify_raster, image, None, threshold) < 0.75
