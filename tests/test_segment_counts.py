"""The segment layer's counting steps against the code they replaced.

``otsu_threshold`` and ``binarize`` take a two-level image's threshold
as its lower level plus one, found by testing its pixels less the lower
level plus one, wrapped to ``uint8``, block by block, and count any other image's histogram from
``uint16`` pixel pairs into an ``int32`` table; ``isolate_object``
labels components by their row runs.  Each is checked here against the
previous whole-array ``bincount`` Otsu and ``scipy.ndimage`` labels,
kept verbatim as the oracles, against source mutants of the two-level
test, and against the memory and work it was rewritten to save.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from helpers import source_mutant
from shapeid import ShapeSpec, StageError, binarize, classify_raster, corpus, isolate_object, otsu_threshold, render
from shapeid import segment
from sweep import _speckled

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def old_histogram(image):
    return np.bincount(np.asarray(image).ravel().astype(np.int64), minlength=256)


def old_otsu_threshold(image) -> int:
    """Threshold maximizing between-class histogram variance.

    Returns ``t`` such that foreground is ``intensity >= t``; variance ties
    resolve toward the lower threshold.  An image with a single distinct
    intensity has no two classes to separate.
    """
    img = np.asarray(image)
    hist = np.bincount(img.ravel().astype(np.int64), minlength=256).astype(np.float64)
    if np.count_nonzero(hist) < 2:
        raise ValueError("degenerate histogram: single distinct intensity")
    weight = np.cumsum(hist)
    mass = np.cumsum(hist * np.arange(256))
    w0 = weight[:-1]
    w1 = weight[-1] - w0
    valid = (w0 > 0) & (w1 > 0)
    mu0 = np.divide(mass[:-1], w0, out=np.zeros(255), where=valid)
    mu1 = np.divide(mass[-1] - mass[:-1], w1, out=np.zeros(255), where=valid)
    variance = np.where(valid, w0 * w1 * (mu0 - mu1) ** 2, -1.0)
    return int(np.argmax(variance)) + 1


def _old_binarize(image):
    return image >= old_otsu_threshold(image)


def old_isolate_object(mask: np.ndarray) -> np.ndarray:
    """Keep only the largest 4-connected foreground component.

    Only the bounding box of the foreground is labelled; the kept
    component is returned in a mask of the input's shape.  Size ties
    resolve to the component whose first pixel comes earliest in row-major
    order (the same order inside the box as in the whole mask).
    """
    m = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(m.any(axis=1))
    if len(rows) == 0:
        raise ValueError("no object: mask has no foreground pixels")
    top, bottom = rows[0], rows[-1] + 1
    cols = np.flatnonzero(m[top:bottom].any(axis=0))
    box = (slice(top, bottom), slice(cols[0], cols[-1] + 1))
    labels, count = ndimage.label(m[box], structure=_FOUR_CONNECTED)
    if count == 1:
        return m.copy()
    sizes = np.bincount(labels.ravel())[1:]
    tied = np.flatnonzero(sizes == sizes.max()) + 1
    if len(tied) == 1:
        keep = tied[0]
    else:
        flat = labels.ravel()
        keep = min(tied, key=lambda lab: int(np.argmax(flat == lab)))
    if labels.shape == m.shape:
        return labels == keep
    out = np.zeros_like(m)
    out[box] = labels == keep
    return out


def _threshold_outcome(fn, image):
    try:
        return fn(image)
    except ValueError as err:
        return str(err)


_side = st.integers(1, 24)
_shapes = st.one_of(
    st.tuples(st.just(1), _side), st.tuples(_side, st.just(1)), st.tuples(_side, _side)
)


@st.composite
def _images(draw):
    """``uint8`` images: arbitrary, constant, or two-level."""
    shape = draw(_shapes)
    kind = draw(st.sampled_from(["any", "constant", "two-level"]))
    if kind == "any":
        return draw(arrays(np.uint8, shape))
    low, high = draw(st.integers(0, 255)), draw(st.integers(0, 255))
    if kind == "constant":
        return np.full(shape, low, dtype=np.uint8)
    pick = draw(arrays(np.bool_, shape))
    return np.where(pick, high, low).astype(np.uint8)


def _views(image):
    """Contiguous and strided views of ``image``, and a view at an odd byte."""
    shifted = np.empty(image.size + 1, dtype=np.uint8)[1:].reshape(image.shape)
    shifted[...] = image
    return [image, image[:, ::2], image.T, image[::-1], image[::-1, ::-2], shifted]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(image=_images())
def test_histogram_matches_bincount(image):
    for view in _views(image):
        hist = segment._histogram(view)
        assert hist.dtype == np.int64
        assert np.array_equal(hist, old_histogram(view))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(image=_images())
def test_threshold_matches_old(image):
    for view in _views(image):
        assert _threshold_outcome(otsu_threshold, view) == _threshold_outcome(old_otsu_threshold, view)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(image=_images(), dtype=st.sampled_from([np.int16, np.int64]))
def test_in_range_integer_dtypes_match_old(image, dtype):
    wide = image.astype(dtype)
    assert np.array_equal(segment._histogram(wide), old_histogram(wide))
    assert _threshold_outcome(otsu_threshold, wide) == _threshold_outcome(old_otsu_threshold, wide)


@pytest.mark.parametrize("pairs_per_pass", [1, 2, 3])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(image=_images())
def test_multi_pass_fold_matches_bincount(pairs_per_pass, image):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segment, "_PAIRS_PER_PASS", pairs_per_pass)
        for view in (image, image.T):
            assert np.array_equal(segment._histogram(view), old_histogram(view))
            assert _threshold_outcome(otsu_threshold, view) == _threshold_outcome(old_otsu_threshold, view)


@st.composite
def _masks(draw):
    """Random masks, masks of equal-sized blocks (size ties), and a filled
    object with holes and single-pixel specks around it."""
    kind = draw(st.sampled_from(["random", "ties", "holes"]))
    if kind == "random":
        shape = draw(st.tuples(st.integers(1, 16), st.integers(1, 16)))
        return draw(arrays(np.bool_, shape))
    if kind == "ties":
        block = draw(st.integers(1, 3))
        grid = draw(arrays(np.bool_, (draw(st.integers(1, 5)), draw(st.integers(1, 5)))))
        # Blocks on a grid with one-pixel gaps: equal sizes, never touching.
        cell = np.zeros((block + 1, block + 1), dtype=bool)
        cell[:block, :block] = True
        return np.kron(grid, cell).astype(bool)
    size = draw(st.integers(6, 20))
    mask = np.zeros((size, size), dtype=bool)
    mask[2:-2, 2:-2] = True
    holes = draw(st.lists(st.tuples(st.integers(2, size - 3), st.integers(2, size - 3)), max_size=6))
    specks = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=8))
    for y, x in holes:
        mask[y, x] = False
    for y, x in specks:
        if y in (0, size - 1) or x in (0, size - 1):
            mask[y, x] = True
    return mask


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mask=_masks())
def test_isolate_matches_whole_box_bincount(mask):
    if not mask.any():
        with pytest.raises(ValueError, match="no object"):
            isolate_object(mask)
        return
    assert np.array_equal(isolate_object(mask), old_isolate_object(mask))


def test_isolate_tie_of_many_single_pixels():
    mask = np.zeros((9, 9), dtype=bool)
    mask[::2, ::2] = True
    expect = np.zeros_like(mask)
    expect[0, 0] = True
    assert np.array_equal(isolate_object(mask), expect)
    assert np.array_equal(old_isolate_object(mask), expect)


def _peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("size", [256, 1024, 2048])
def test_otsu_peak_does_not_grow_with_the_image(size):
    image = np.full((size, size), 30, dtype=np.uint8)
    image[size // 4:3 * size // 4, size // 4:3 * size // 4] = 210
    assert otsu_threshold(image) == 31
    # The int32 pair table (0.25 MiB) and numpy's cast buffer; an int64
    # copy of the pixels would take 0.5, 8 and 32 MiB.
    assert _peak_mib(otsu_threshold, image) < 0.4


def test_isolate_peak_below_int64_copy_of_labels():
    # About 16% foreground, as in the speckle_512 benchmark workload: the
    # run labeller's arrays grow with the number of runs, not with the
    # raster.
    rng = np.random.default_rng(512)
    clean = render(ShapeSpec.square((255.5, 255.5), 200, fg=200, bg=50), 512, 512)
    noisy = np.clip(np.rint(clean + rng.normal(0.0, 20.0, clean.shape)), 0, 255).astype(np.uint8)
    u = rng.random(clean.shape)
    noisy[u < 0.005] = 255
    noisy[(u >= 0.005) & (u < 0.01)] = 0
    mask = binarize(noisy)
    assert ndimage.label(mask, structure=_FOUR_CONNECTED)[1] > 500
    assert np.array_equal(isolate_object(mask), old_isolate_object(mask))
    # An int64 copy of the 512x512 labels alone would take 2 MiB.
    assert _peak_mib(isolate_object, mask) < 2.0


@pytest.mark.parametrize("size", [256, 1024, 2048])
def test_otsu_peak_on_a_third_level_stays_flat(size):
    # One pixel of a third level in the last block: the two-level test
    # runs to the end, gives up, and the pair count runs after it.
    image = np.full((size, size), 30, dtype=np.uint8)
    image[size // 4:3 * size // 4, size // 4:3 * size // 4] = 210
    image[-1, -1] = 200
    assert otsu_threshold(image) == old_otsu_threshold(image) == 31
    # The pair table and numpy's cast buffer took 0.320 MiB; the 64 KiB
    # two-level scratch buffer, if still alive next to them, would make 0.383.
    assert _peak_mib(otsu_threshold, image) < 0.35


def _square(size):
    image = np.full((size, size), 30, dtype=np.uint8)
    image[size // 4:3 * size // 4, size // 4:3 * size // 4] = 210
    return image


@pytest.mark.parametrize("size", [256, 1024])
@pytest.mark.parametrize("view, slack", [("contiguous", 4096), ("transposed", 16384), ("int64", 4096)])
def test_two_level_binarize_allocates_only_its_mask(size, view, slack):
    image = _square(size)
    image = {"contiguous": image, "transposed": image.T, "int64": image.astype(np.int64)}[view]
    assert np.array_equal(binarize(image), image >= 31)
    # The 64 KiB buffer otsu_threshold tests in is freed before the mask
    # is made, and no uint8 copy of the image would fit beside the mask.
    # numpy reads a strided image through a buffer of 8,192 elements.
    assert _peak_mib(binarize, image) * 2**20 <= size * size + slack


@pytest.mark.parametrize("size", [1024, 2048])
def test_binarize_drops_its_mask_before_the_pair_table(size):
    # A third level in the last block: the two-level test runs to the end,
    # and the 0.25 MiB pair table is freed before the mask is made.
    image = _square(size)
    image[-1, -1] = 200
    assert np.array_equal(binarize(image), _old_binarize(image))
    assert _peak_mib(binarize, image) * 2**20 < size * size + 65536


@pytest.mark.parametrize("size", [256, 1024, 2048])
def test_two_level_otsu_allocates_no_pair_table(size):
    image = np.full((size, size), 30, dtype=np.uint8)
    image[size // 4:3 * size // 4, size // 4:3 * size // 4] = 210
    # One 64 KiB band of the two-level test only; the pair table alone is
    # 0.25 MiB.
    assert _peak_mib(otsu_threshold, image) < 0.1


_BLOCK = segment._COMPARE_BLOCK


def _band_rule_holds(band_rows, height: int, width: int, block: int) -> bool:
    """Whether ``band_rows`` cuts ``height`` rows of ``width`` items into
    the fewest bands of whole rows, each of at most ``block`` items unless
    a single row is wider."""
    step = band_rows(height, width)
    return (
        1 <= step <= height
        and -(-height // step) == -(-height // max(1, block // width))
        and (step * width <= block or (step == 1 and width > block))
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    height=st.integers(1, 5000),
    width=st.one_of(st.integers(1, 300), st.integers(1, 3 * _BLOCK)),
    block=st.sampled_from([_BLOCK, 16, 100]),
)
def test_band_rows_gives_the_fewest_bands_within_the_block(height, width, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segment, "_COMPARE_BLOCK", block)
        assert _band_rule_holds(segment._band_rows, height, width, block)


def test_band_rows_reads_the_block_when_called():
    # The labeller tests patch _COMPARE_BLOCK to 16 or 100; bound at
    # import as a default argument, it would stay at 64 Ki there, and those
    # tests would cut no bands.
    mutant = source_mutant(
        segment,
        "def _band_rows(height: int, width: int) -> int:",
        "def _band_rows(height: int, width: int, _COMPARE_BLOCK=_COMPARE_BLOCK) -> int:",
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segment, "_COMPARE_BLOCK", 16)
        mp.setitem(mutant, "_COMPARE_BLOCK", 16)
        assert _band_rule_holds(segment._band_rows, 100, 4, 16)
        assert not _band_rule_holds(mutant["_band_rows"], 100, 4, 16)


def test_a_row_wider_than_a_block_peaks_at_its_box_columns():
    # One row of 196,613 pixels, 30% of them foreground, is one band of
    # 192 KiB.  _foreground_box's column arrays set the peak, 670,014 B,
    # as they did when the row was cut into 64 KiB blocks.
    n = 3 * _BLOCK + 5
    image = np.where(np.random.default_rng(15).random(n) < 0.3, 210, 30).astype(np.uint8).reshape(1, n)
    assert otsu_threshold(image) == 31
    assert _peak_mib(otsu_threshold, image) < 0.70


@st.composite
def _block_images(draw):
    """Constant and two-level images of up to three two-level blocks, some
    with one odd pixel in the first block, the last block or at a block edge."""
    n = draw(st.one_of(
        st.sampled_from([1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1]),
        st.integers(1, 3 * _BLOCK),
    ))
    layout = draw(st.sampled_from(["row", "column", "rect"]))
    if layout == "rect":
        # Two rows wider than a block are cut into blocks along each row.
        width = draw(st.sampled_from([w for w in (2, 3, 7, 256, n // 2) if w and n % w == 0] or [1]))
        shape = (n // width, width)
    else:
        shape = (1, n) if layout == "row" else (n, 1)
    low, high = draw(st.integers(0, 255)), draw(st.integers(0, 255))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.0, 0.001, 0.5, 0.999, 1.0]))
    flat = np.where(rng.random(n) < share, high, low).astype(np.uint8)
    where = draw(st.sampled_from(["none", "first", "last", "edge"]))
    if where != "none":
        if where == "first":
            at = draw(st.integers(0, min(n, _BLOCK) - 1))
        elif where == "last":
            at = draw(st.integers((n - 1) // _BLOCK * _BLOCK, n - 1))
        else:
            at = min(n - 1, _BLOCK * draw(st.integers(1, 3)) + draw(st.integers(-1, 0)))
        flat[at] = draw(st.integers(0, 255))
    return flat.reshape(shape)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(image=_block_images())
def test_pair_count_matches_bincount_on_block_images(image):
    for view in _views(image):
        hist = segment._histogram(view)
        assert hist.dtype == np.int64
        assert np.array_equal(hist, old_histogram(view))


def _same_binarize(fn, image) -> bool:
    got, want = _threshold_outcome(fn, image), _threshold_outcome(_old_binarize, image)
    if isinstance(want, str):
        return got == want
    return isinstance(got, np.ndarray) and got.dtype == bool and np.array_equal(got, want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(image=_block_images())
def test_two_level_threshold_matches_old_otsu(image):
    for view in _views(image):
        assert _threshold_outcome(otsu_threshold, view) == _threshold_outcome(old_otsu_threshold, view)
        assert _same_binarize(binarize, view)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (256, 257), (2, _BLOCK + 1)])
def test_constant_image_keeps_the_degenerate_message(shape):
    image = np.full(shape, 77, dtype=np.uint8)
    message = "degenerate histogram: single distinct intensity"
    for fn in (old_otsu_threshold, otsu_threshold, binarize):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(image)
    with pytest.raises(StageError, match=f"^segmentation: {message}$") as err:
        classify_raster(image)
    assert err.value.stage == "segmentation"


def _third_level_images():
    """Two-level images of three blocks and a bit, each with one pixel of a
    third level in the first block, at a block edge or in the last block;
    and a square on a 300x257 background with one pixel of a third level
    in its last row, in a row of the square but a column outside it, or in
    a row of background alone."""
    n = 3 * _BLOCK + 5
    flat = np.where(np.random.default_rng(15).random(n) < 0.3, 210, 30).astype(np.uint8)
    yield flat.reshape(1, n).copy()
    for at in (0, _BLOCK - 1, _BLOCK, 2 * _BLOCK, n - 1):
        for level in (40, 120, 200):
            image = flat.copy()
            image[at] = level
            yield image.reshape(1, n)
    square = np.full((300, 257), 30, dtype=np.uint8)
    square[100:200, 50:150] = 210
    yield square.copy()
    for at in ((199, 60), (150, 200), (10, 10)):
        for level in (40, 120, 200):
            image = square.copy()
            image[at] = level
            yield image


# Mutation checks: each fragment of segment.py below is replaced by a
# plausible mistake, and the comparisons above must then find a case that
# differs.

@pytest.mark.parametrize("old, new", [
    # the lower level as the threshold, not the level above it
    ("return lo + 1", "return lo"),
    # no test of the box's least value: every image whose row maxima are
    # two levels passes as two-level
    ('part[r:r + step], lo + 1, dtype=np.uint8, casting="unsafe").min() < floor:',
     'part[r:r + step], lo + 1, dtype=np.uint8, casting="unsafe").min() < 0:'),
    # the box of the upper level alone: a third level in a column holding
    # no upper level is read as background
    ("box = _foreground_box(img, lo + 1, top)", "box = _foreground_box(img, hi, top)"),
    # the band's last row cut off
    ("band = slice(rows[0], rows[-1] + 1)", "band = slice(rows[0], rows[-1])"),
])
def test_two_level_mutants_are_caught(old, new):
    mutant = source_mutant(segment, old, new)
    images = list(_third_level_images())
    assert any(
        _threshold_outcome(mutant["otsu_threshold"], image) != _threshold_outcome(old_otsu_threshold, image)
        for image in images
    )
    # binarize compares the image with otsu_threshold's result, so it
    # must see every mutant that does.
    assert any(not _same_binarize(mutant["binarize"], image) for image in images)


def _ends_at_the_row_maxima(two_level) -> bool:
    """Whether ``two_level`` turns down a 1024x1024 square whose third
    level is the greatest value of a row of background, and allocates no
    band's difference (64 KiB) to do so."""
    image = np.full((1024, 1024), 30, dtype=np.uint8)
    image[256:768, 256:768] = 210
    image[10, 10] = 120
    top = image.max(axis=1)
    two_level(image, top)  # first call: let numpy set up its caches
    tracemalloc.start()
    try:
        found = two_level(image, top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return found is None and peak < 16384


def test_a_third_level_among_the_row_maxima_reads_no_block():
    assert _ends_at_the_row_maxima(segment._two_level)
    # Without the test of the row maxima the answer is the same, found in
    # the box's blocks, so only the work shows the mutant.
    mutant = source_mutant(
        segment,
        'if np.subtract(top, lo + 1, dtype=np.uint8, casting="unsafe").min() < floor:',
        "if False:",
    )
    assert not _ends_at_the_row_maxima(mutant["_two_level"])


def test_isolate_peak_with_a_large_foreground_share():
    # 44% foreground: 15% random speckle plus a 300x300 block, 22,256
    # runs.  The run labeller peaks at 0.89 MiB here, sizing its
    # components in intp (1.02 MiB with bincount's float64 weights, 1.01
    # when it narrowed its run indices to int32); pixel labels took 1.65
    # MiB.
    rng = np.random.default_rng(44)
    mask = rng.random((512, 512)) < 0.15
    mask[106:406, 106:406] = True
    assert 0.43 < mask.mean() < 0.45
    assert np.array_equal(isolate_object(mask), old_isolate_object(mask))
    assert _peak_mib(isolate_object, mask) < 1.8


def _warm_peak_mib(fn, *args):
    fn(*args)  # first call: let numpy set up its caches
    return _peak_mib(fn, *args)


@pytest.mark.parametrize("size, bound", [(512, 0.36), (1024, 0.50)])
def test_speckled_spans_peak_below_a_box_mask(size, bound):
    # The sweep's speckled renders have an empty row in their box, so the
    # labeller thresholds the box in bands and no box mask is made: the
    # pair table (0.25 MiB) and add.at's index buffer set the peak, 0.32
    # MiB at both sizes.  The box mask and the labeller's box-sized array
    # of changes took 0.54 and 2.14 MiB.
    rng = np.random.default_rng(size)
    for name, spec in corpus(size, size):
        image = _speckled(render(spec, size, size), rng)
        assert _warm_peak_mib(segment.foreground_spans, image) < bound, name


def test_a_failed_proof_holds_no_box_mask():
    image = _speckled(render(dict(corpus(2048, 2048))["rectangle"], 2048, 2048), np.random.default_rng(2048))
    t = segment._histogram_threshold(image)
    foreground = image >= t
    # Every row holds foreground, but the object is not all of it, so the
    # one-component proof fails and the runs are joined by union-find.
    assert foreground.any(axis=1).all()
    assert segment.foreground_spans(image).area < np.count_nonzero(foreground)
    del foreground
    # The labeller reads the box in 64 KiB bands, and its arrays for
    # 21,626 runs come after its buffers are freed: 0.90 MiB.  The 4 MiB
    # box mask the proof read before it was banded took the peak to 4.10
    # MiB, and the old labeller's box-sized array of changes to 8.5.
    assert _warm_peak_mib(segment.foreground_spans, image) < 1.5
    # A labeller that reads the whole box as one band holds it as a mask.
    mutant = source_mutant(segment, "    step = _band_rows(h, width)\n", "    step = h\n")
    assert _warm_peak_mib(mutant["foreground_spans"], image) >= 1.5
