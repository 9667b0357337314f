"""``foreground_spans`` against the two calls it stands for.

``classify_raster`` takes its spans from ``foreground_spans(image,
threshold)``, which under every threshold compares only the foreground's
bounding box with the threshold.  Whatever the image, view or threshold,
it must give what ``object_spans(binarize(image, threshold))`` gave
before that route was shared, or raise the same ``ValueError``; those
two functions, and the ones they called that have since been rewritten,
are kept below as the oracle, verbatim but for the row minima the old
``_two_level`` gathered for ``foreground_spans`` alone.  The oracle's
``_box_spans`` and ``_run_ends`` are the ones that proved one component
from each row's first and last pixel, found by ``argmax`` over the box
mask and numpy's reversed copy of it, before the proof was folded into
the run labeller; ``_two_level`` is also checked against the full
histogram.  The oracle's ``_largest_runs`` labelled a whole box mask;
the labeller that thresholds its box in bands, and proves one component
from its runs, is checked against it directly, on boxes of several
bands, and through ``isolate_object``.  Source mutants of the bounding
box, the proof and the reduction to one span per row must be caught by
the same comparison, and the traced peak of ``classify_raster`` on a
1024x1024 render stays below a full-size mask beside the box, under Otsu
and under a fixed threshold, and on every clean 1024x1024 corpus render
below the box mask the proof read before it was banded.  A wide
``int64`` image peaks as its ``uint8`` twin does.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import source_mutant
from shapeid import classify_raster, corpus, render
from shapeid import segment
from shapeid.pgm import check_image
from shapeid.segment import _histogram_threshold, check_mask, foreground_spans

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


def old_run_ends(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, int] | None:
    """First and last ``True`` column of each row of a 2-D ``bool`` array,
    and its pixel total, if each of its rows is one run, else ``None``.

    The last is the first ``True`` of the row reversed.  ``argmax`` copies
    a reversed array, so it takes bands of at most ``_BLOCK``
    pixels (whole rows) at a time.  An empty row reads as a span of the
    whole width.  A row's count is at most the width of its span, so the
    totals are equal only if every row's are."""
    height, width = rows.shape
    last = np.empty(height, dtype=np.intp)
    step = max(1, _BLOCK // width)
    for r in range(0, height, step):
        rows[r:r + step, ::-1].argmax(axis=1, out=last[r:r + step])
    np.subtract(width - 1, last, out=last)
    first = rows.argmax(axis=1)
    total = int(np.count_nonzero(rows))
    if total != np.sum(last - first + 1):
        return None
    return first, last, total


def old_largest_runs(box: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, first columns and last columns of the runs of the largest
    4-connected component of a 2-D ``bool`` array, in row-major order.

    Components are labelled over row runs, not pixels.  Each row gets a
    ``False`` column at its end, so in the flattened rows of ``width``
    slots the runs start and end at alternate changes of value, and a
    run's start ``s`` and end ``e`` (exclusive) lie in one row.  The runs
    one row up that touch a run are those ending after ``s - width`` and
    starting before ``e - width``; no run of another row lies between
    them.  Runs are joined by union-find: each root is hooked to the
    smallest root it touches, then pointers are jumped to their roots,
    until no edge joins two trees.  Every hook points to an earlier run,
    so a root is its component's first run, and size ties resolve to the
    component whose first pixel comes earliest in row-major order.
    """
    h, w = box.shape
    width = w + 1
    # int32 run indices halve the labeller's arrays wherever they fit.
    dtype = np.int32 if h * width < 2**31 else np.intp
    # Where each pixel differs from the one before it, the extra column
    # and the row's first pixel each read against a False pixel.
    changes = np.empty((h, width), dtype=bool)
    changes[:, 0] = box[:, 0]
    np.not_equal(box[:, 1:], box[:, :-1], out=changes[:, 1:w])
    changes[:, w] = box[:, w - 1]
    ends = np.flatnonzero(changes).astype(dtype)
    del changes
    start, end = ends[0::2], ends[1::2]
    lo = np.searchsorted(end, start - width, side="right").astype(dtype)
    touched = np.searchsorted(start, end - width).astype(dtype) - lo
    # One edge from each run to each run it touches one row up: a run's
    # k-th edge goes to run lo + k.
    below = np.repeat(np.arange(len(start), dtype=dtype), touched)
    first_edge = np.cumsum(touched, dtype=dtype) - touched
    above = np.arange(len(below), dtype=dtype) + np.repeat(lo - first_edge, touched)
    del lo, touched, first_edge
    root = np.arange(len(start), dtype=dtype)
    while True:
        a, b = root[below], root[above]
        apart = a != b
        if not apart.any():
            break
        a, b = a[apart], b[apart]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    # Float sizes are exact: a box holds far fewer than 2**53 pixels.
    sizes = np.bincount(root, weights=end - start, minlength=len(start))
    kept = root == sizes.argmax()
    start, end = start[kept], end[kept]
    rows = start // width
    return rows, start - rows * width, end - 1 - rows * width


def old_box_spans(m: np.ndarray, rows: np.ndarray, box: tuple[slice, slice]) -> segment.Spans:
    """``Spans`` of the largest 4-connected component of a mask, the object
    ``isolate_object`` keeps, from the mask's foreground bounding box
    ``box``, the part ``m`` of the mask it covers, and the mask's non-empty
    rows ``rows``, as ``_foreground_box`` gives them.

    The foreground is proved to be one component, without labelling it,
    when its bounding box has no empty row, every row is one run, and each
    run overlaps the columns of the next.  An empty row rejects the proof
    before the rows are read.  Otherwise the box is labelled by its row
    runs (``_largest_runs``), the kept runs are reduced to one span per
    row, and their lengths are summed to the pixel total; no label raster
    or kept mask is made.
    """
    top, left = box[0].start, box[1].start
    # The empty-row test only rejects early: the one-run test below fails
    # on an empty row too.
    if len(rows) == len(m):
        ends = old_run_ends(m)
        if ends:
            first, last, total = ends
            if (np.maximum(first[1:], first[:-1]) <= np.minimum(last[1:], last[:-1])).all():
                return segment.Spans(rows, left + first, left + last, total)
    ys, first, last = old_largest_runs(m)
    # The runs are in row-major order: a row's first run holds its first
    # column and its last run its last.
    heads = np.flatnonzero(np.diff(ys, prepend=-1))
    tails = np.append(heads[1:], len(ys)) - 1
    return segment.Spans(
        np.add(top, ys[heads], dtype=np.intp),
        np.add(left, first[heads], dtype=np.intp),
        np.add(left, last[tails], dtype=np.intp),
        int(np.sum(last - first + 1)),
    )


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
    return old_box_spans(m[box], rows, box)

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
    return image, image.astype(np.int64), image.T, image[::-1, ::-1]


_THRESHOLDS = st.one_of(st.just("otsu"), st.integers(0, 256), st.just("mean"))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(image=_images(), threshold=_THRESHOLDS)
def test_foreground_spans_match_the_mask_path(image, threshold):
    for view in _views(image):
        assert _outcome(foreground_spans, view, threshold) == _outcome(_reference, view, threshold)


#: Widths around one 8-byte word, and around a row of 1024 pixels, which
#: the labeller reads in more than one band in a box of 70 rows.
_WIDTHS = st.one_of(st.integers(1, 17), st.integers(1023, 1025))


@st.composite
def _level_images(draw):
    """Images of 1 to 70 rows of widths 1-17 or 1023-1025, or their
    transposes (one-row and one-column images among them), holding one run
    of the object's level in some rows, so that rows of background alone
    can lie between the object's, and a third level nowhere, beside the
    upper level in one of its rows, as the greatest value of a row of the
    lower level alone, or anywhere."""
    h, w = draw(st.sampled_from([1, 2, 3, 9, 70])), draw(_WIDTHS)
    if draw(st.booleans()):
        h, w = w, h
    bg, fg = draw(st.lists(st.integers(0, 255), min_size=2, max_size=2, unique=True))
    image = np.full((h, w), bg, dtype=np.uint8)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for y in np.flatnonzero(rng.random(h) < draw(st.sampled_from([0.2, 0.7, 1.0]))):
        x0, x1 = sorted(rng.integers(0, w, 2))
        image[y, x0:x1 + 1] = fg
    lo, hi = min(bg, fg), max(bg, fg)
    third = draw(st.sampled_from(["none", "beside the upper level", "as a row's greatest value", "anywhere"]))
    if third == "anywhere":
        image[rng.integers(h), rng.integers(w)] = draw(st.integers(0, 255))
    elif third != "none" and hi - lo > 1:
        level = draw(st.integers(lo + 1, hi - 1))
        # A lower pixel in a row holding the upper level, or a row of the
        # lower level alone.
        upper = third == "beside the upper level"
        rows = np.flatnonzero((image.max(axis=1) == hi) == upper)
        if upper:
            rows = rows[(image[rows] == lo).any(axis=1)]
        if len(rows):
            y = rows[rng.integers(len(rows))]
            xs = np.flatnonzero(image[y] == lo)
            image[y, xs[rng.integers(len(xs))]] = level
    return image


@settings(max_examples=200, deadline=None, derandomize=True)
@given(image=_level_images())
def test_row_maxima_and_padded_rows_match_the_oracles(image):
    for view in _views(image):
        for threshold in ("otsu", int(image.max())):
            assert _outcome(foreground_spans, view, threshold) == _outcome(_reference, view, threshold)
        levels = len(np.unique(view))
        if levels == 1:
            with pytest.raises(ValueError, match="^degenerate histogram"):
                segment._two_level(view, view.max(axis=1))
            continue
        found = segment._two_level(view, view.max(axis=1))
        assert (found is None) == (levels > 2)
        if found is not None:
            assert found[0] == _histogram_threshold(view)


def _box_cases():
    """Two-level images whose foreground bounds lie in different blocks:
    a rhombus widest in its middle rows, an object in the last block only,
    one in the last columns of a row whose width is not a multiple of 8,
    one cut across the blocks of rows wider than a block, one touching
    every edge, one whose rows each end at the image's last column, and
    two objects that meet only at a corner where the labeller's bands
    meet, the lower one right of the upper one or left of it."""
    rhombus = render(dict(corpus(1024, 1024))["rhombus"], 1024, 1024)
    yield rhombus
    late = np.zeros((300, 257), dtype=np.uint8)
    late[-3:, 100:140] = 200
    yield late
    right = np.zeros((40, 257), dtype=np.uint8)
    right[5:30, 250:] = 200
    right[10:20, 240:250] = 200
    yield right
    wide = np.full((3, 2 * _BLOCK + 5), 7, dtype=np.uint8)
    wide[0, _BLOCK - 4:_BLOCK + 9] = 9
    wide[1, 10:2 * _BLOCK] = 9
    yield wide
    framed = np.full((130, 700), 40, dtype=np.uint8)
    framed[[0, -1], :] = 90
    framed[:, [0, -1]] = 90
    yield framed
    # One run per row, up to the image's last column.
    narrow = np.zeros((20, 13), dtype=np.uint8)
    narrow[:, 2:] = 200
    yield narrow
    # Two blocks of one run per row, one below and right of the other,
    # meeting only at a corner where the labeller's bands of 1,024-slot
    # rows meet: two objects.
    stairs = np.zeros((128, 1023), dtype=np.uint8)
    stairs[:64, :500] = 200
    stairs[64:, 500:] = 200
    assert segment._band_rows(128, 1024) == 64
    yield stairs
    yield stairs[:, ::-1]


def test_foreground_spans_match_on_the_box_cases():
    for image in _box_cases():
        for view in _views(image):
            # Otsu's, and the object's level as a fixed threshold.
            for threshold in ("otsu", int(image.max())):
                assert _outcome(foreground_spans, view, threshold) == _outcome(_reference, view, threshold)


# Mutation checks: each fragment of segment.py below is replaced by a
# plausible mistake in the foreground's bounding box, the one-component
# proof or the reduction to one span per row, and the comparison above
# must then find a case that differs, under Otsu and, where the fragment
# is on its route, under a fixed threshold.

@pytest.mark.parametrize("old, new, fixed_sees_it", [
    # the columns of the last row with foreground only
    ("cols = (np.maximum.reduce(a[band], axis=0, dtype=np.uint8) >= t).nonzero()[0]",
     "cols = (np.maximum.reduce(a[rows[-1]].reshape(1, -1), axis=0, dtype=np.uint8) >= t).nonzero()[0]", True),
    # the band's last row cut off
    ("band = slice(rows[0], rows[-1] + 1)", "band = slice(rows[0], rows[-1])", True),
    # the box one column short on the right
    ("return band, slice(cols[0], cols[-1] + 1)",
     "return band, slice(cols[0], cols[-1])", True),
    # the proof without its test that each run starts left of the end of
    # the one above
    ("((start[1:] - width < end[:-1]) & (end[1:] - width > start[:-1])).all()",
     "(end[1:] - width > start[:-1]).all()", True),
    # the proof without its test that each run ends right of the start of
    # the one above
    ("((start[1:] - width < end[:-1]) & (end[1:] - width > start[:-1])).all()",
     "(start[1:] - width < end[:-1]).all()", True),
    # runs that meet only at a corner read as overlapping
    ("(start[1:] - width < end[:-1])", "(start[1:] - width <= end[:-1])", True),
    ("(end[1:] - width > start[:-1])", "(end[1:] - width >= start[:-1])", True),
    # the kept runs never reduced to one span per row
    ("if len(ys) > ys[-1] - ys[0] + 1:", "if False:", True),
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
    # The labeller's band and its changes (0.12 MiB); the 1 MiB
    # full-size mask took the peak to 1.32 MiB.
    assert _peak_mib(classify_raster, image, None, threshold) < 0.75


@pytest.mark.parametrize("name", [name for name, _ in corpus(1024, 1024)])
def test_clean_1024_renders_peak_below_the_box_mask(name):
    image = render(dict(corpus(1024, 1024))[name], 1024, 1024)
    # The labeller holds two 64 KiB band buffers, not the box.  With the
    # box mask the largest peak was the rhombus's, 0.360 MiB; banded it is
    # the rhombus's, 0.140 MiB.
    assert _peak_mib(classify_raster, image) <= 0.16


@pytest.mark.parametrize("fn", [segment.otsu_threshold, foreground_spans])
def test_wide_int64_image_peaks_as_its_uint8_twin(fn):
    # One row of three compare blocks and five pixels, with a 10-pixel
    # object: the box's column maxima span the whole row, so int64 maxima
    # (1.57 MB) took the peak from 0.394 to 1.77 MB.
    image = np.full((1, 3 * _BLOCK + 5), 30, dtype=np.uint8)
    image[0, 1000:1010] = 210
    assert _peak_mib(fn, image.astype(np.int64)) < 1.05 * _peak_mib(fn, image)


# The labeller thresholds its box in bands of whole rows.  It must give
# the runs the old labeller gave on the box's mask, as ``intp`` arrays,
# whatever the band edges cut, and ``isolate_object`` must paint them.

def _check_banded_runs(mask: np.ndarray) -> None:
    a = mask.view(np.uint8)
    box = segment._foreground_box(a, 1, a.max(axis=1, initial=0))
    new, old = segment._largest_runs(a, 1, box), old_largest_runs(mask[box])
    assert [part.tolist() for part in new] == [part.tolist() for part in old]
    assert [part.dtype for part in new] == [np.dtype(np.intp)] * 3
    top, left = box[0].start, box[1].start
    kept = np.zeros(mask.shape, dtype=bool)
    for y, x0, x1 in zip(*(part.tolist() for part in old)):
        kept[top + y, left + x0:left + x1 + 1] = True
    assert np.array_equal(segment.isolate_object(mask), kept)


def _mask_views(mask: np.ndarray):
    return mask, mask.T, mask[::-1], mask[:, ::-1]


@st.composite
def _banded_masks(draw):
    """Masks of up to 257 rows of up to 1,023 pixels, whose boxes span
    several bands of ``_COMPARE_BLOCK`` slots, or of a block of 16 or 100
    slots: noise, bars crossing the band edges, or two equal blocks, one
    below and left of the other, beside smaller specks."""
    h = draw(st.sampled_from([1, 2, 3, 64, 65, 130, 257]))
    w = draw(st.sampled_from([1, 2, 7, 255, 256, 511, 1023]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "bars", "tie"]))
    if kind == "noise":
        mask = rng.random((h, w)) < draw(st.sampled_from([0.05, 0.5, 0.6, 0.9]))
    elif kind == "bars":
        # Vertical bars through every row, some joined along one row.
        mask = np.zeros((h, w), dtype=bool)
        mask[:, rng.integers(0, w, draw(st.integers(1, 4)))] = True
        mask[rng.integers(h), rng.integers(0, w, 2).min():] = True
    else:
        mask = rng.random((h, w)) < 0.02
        side = max(1, min(h, w) // 4)
        mask[:side, w - side:] = True
        mask[h - side:, :side] = True
    if not mask.any():
        mask[rng.integers(h), rng.integers(w)] = True
    return mask, draw(st.sampled_from([segment._COMPARE_BLOCK, 16, 100]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_banded_masks())
def test_banded_labeller_matches_the_old_one(case):
    mask, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segment, "_COMPARE_BLOCK", block)
        for view in _mask_views(mask):
            _check_banded_runs(view)


def _crossing_case() -> np.ndarray:
    """A U whose arms meet only in the band below them, with a block
    larger than either arm but smaller than the U beside it: labelled band
    by band without joining across the edge, the block would win."""
    mask = np.zeros((130, 1023), dtype=bool)
    mask[:66, 10] = True
    mask[:66, 20] = True
    mask[65, 10:21] = True
    mask[:9, 100:109] = True
    return mask


def _tie_case() -> np.ndarray:
    """Two 5x5 blocks, the second in a later band and further left: the
    first in row-major order must win."""
    mask = np.zeros((130, 1023), dtype=bool)
    mask[:5, 900:905] = True
    mask[100:105, :5] = True
    return mask


@pytest.mark.parametrize("name", ["crossing", "tie", "row", "column"])
def test_banded_labeller_on_crafted_boxes(name):
    mask = {
        "crossing": _crossing_case,
        "tie": _tie_case,
        "row": lambda: np.array([[1, 1, 0, 1, 1, 1, 0, 1]], dtype=bool),
        "column": lambda: np.array([[1], [1], [0], [1], [1], [1], [0], [1]], dtype=bool),
    }[name]()
    if mask.shape == (130, 1023):
        # Rows of 1,024 slots: 64 rows a band, so three bands.
        assert segment._COMPARE_BLOCK // 1024 == 64
    for view in _mask_views(mask):
        _check_banded_runs(view)
    if name == "tie":
        assert np.array_equal(np.argwhere(segment.isolate_object(mask))[0], [0, 900])


@pytest.mark.parametrize("slots", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_banded_labeller_on_rows_of_a_whole_band(slots):
    # Rows of w + 1 slots about one band each, so that every band is one
    # row, with runs crossing from each row into the next.
    rng = np.random.default_rng(slots)
    mask = rng.random((4, slots - 1)) < 0.5
    mask[:, slots // 2] = True
    for view in _mask_views(mask):
        _check_banded_runs(view)
