"""The object's row spans against the mask path they replaced.

``classify_raster`` reads the largest component's row spans straight from
the thresholded box (``segment.foreground_spans``), by its row runs.  It
proves the foreground is one component, with no union-find, when every
row of its box is one run overlapping the next, and joins the runs
otherwise.  A
mask is fed to it as a two-level image under the fixed threshold 1
(``mask_spans``).  The old path, ``isolate_object`` then the row extremes
and pixel count of the kept mask, is kept here verbatim as the oracle.
The tests also pin which path the corpus and speckled images take, what
each path allocates, and that every sweep case gives the same features or
error as the staged masks, ``isolate_object(binarize(image))``.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from shapeid import (
    ShapeSpec,
    StageError,
    binarize,
    classify_raster,
    corpus,
    isolate_object,
    render,
)
from shapeid import segment
from shapeid.geometry import features_of_spans
from shapeid.segment import check_mask
from sweep import _speckled, cases
from test_hull_from_mask import _masks, _outcome, _tied_masks, mask_spans, old_row_extremes

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def old_isolate_object(mask: np.ndarray) -> np.ndarray:
    """Keep only the largest 4-connected foreground component.

    Only the bounding box of the foreground is labelled, and component
    sizes are counted over the foreground's labels alone (a label is
    non-zero exactly there); the kept component is written into a new
    ``bool`` mask of the input's shape.  Size ties resolve to the component
    whose first pixel comes earliest in row-major order (the same order
    inside the box as in the whole mask).
    """
    m = check_mask(mask)
    rows = np.flatnonzero(m.any(axis=1))
    if len(rows) == 0:
        raise ValueError("no object: mask has no foreground pixels")
    top, bottom = rows[0], rows[-1] + 1
    cols = np.flatnonzero(m[top:bottom].any(axis=0))
    box = (slice(top, bottom), slice(cols[0], cols[-1] + 1))
    labels, count = ndimage.label(m[box], structure=_FOUR_CONNECTED)
    keep = 1
    if count > 1:
        # add.at indexes with the int32 labels as they are; bincount
        # would first copy them to intp.
        sizes = np.zeros(count + 1, dtype=np.int64)
        np.add.at(sizes, labels[m[box]], np.int64(1))
        # ndimage.label numbers the components in row-major order of their
        # first pixel, so the first largest size is the earliest tied one.
        keep = int(sizes[1:].argmax()) + 1
    out = np.zeros(m.shape, dtype=bool)
    np.equal(labels, keep, out=out[box])
    return out


def old_spans_path(mask):
    """The kept mask, its row extremes and its pixel count."""
    kept = old_isolate_object(mask)
    return kept, old_row_extremes(kept), int(np.count_nonzero(kept))


def assert_spans_match_oracle(mask):
    spans, error = _outcome(mask_spans, mask)
    expected, expected_error = _outcome(old_spans_path, mask)
    assert error == expected_error
    if expected is None:
        return
    kept, extremes, area_px = expected
    for values in (spans.ys, spans.first, spans.last):
        assert values.dtype == np.intp
    assert np.array_equal(np.concatenate([spans.first, spans.last]), extremes[:, 0])
    assert np.array_equal(np.concatenate([spans.ys, spans.ys]), extremes[:, 1])
    assert type(spans.area) is int
    assert spans.area == area_px
    assert np.array_equal(isolate_object(mask), kept)
    # The same spans as the new isolate_object's mask gives.
    assert all(np.array_equal(a, b) for a, b in zip(spans, mask_spans(isolate_object(mask))))


@st.composite
def _run_masks(draw, max_side=24):
    """One run per row, overlapping its neighbour or not, with an empty row
    or salt pixels sometimes added: the cases the proof must tell apart."""
    h = draw(st.integers(1, max_side))
    w = draw(st.integers(1, max_side))
    m = np.zeros((h + 2, w), dtype=bool)
    y0 = draw(st.integers(0, 2))
    for y in range(y0, y0 + h):
        a = draw(st.integers(0, w - 1))
        m[y, a:draw(st.integers(a, w - 1)) + 1] = True
    if draw(st.booleans()):
        m[draw(st.integers(0, h + 1))] = False
    for y, x in draw(st.lists(st.tuples(st.integers(0, h + 1), st.integers(0, w - 1)), max_size=3)):
        m[y, x] = True
    return m


def _mask(text: str) -> np.ndarray:
    return np.array([[c == "#" for c in row] for row in text.split()], dtype=bool)


def _comb(teeth: int, height: int) -> np.ndarray:
    m = np.zeros((height, 2 * teeth - 1), dtype=bool)
    m[:, ::2] = True
    m[-1] = True
    return m


def _serpentine(rows: int, width: int) -> np.ndarray:
    m = np.zeros((rows, width), dtype=bool)
    m[::2] = True
    m[1::4, -1] = True
    m[3::4, 0] = True
    return m


def _noise(share: float, side: int = 256) -> np.ndarray:
    return np.random.default_rng(int(100 * share)).random((side, side)) < share


# name: (mask, whether the foreground is proved one component, so that
# no union-find runs)
CRAFTED = {
    "diagonal-pixels": (_mask("#. .#"), False),
    "diagonal-blocks": (_mask("##.. ##.. ..## ..##"), False),
    "diagonal-unequal": (_mask("##... ##... ..### ..###"), False),
    "runs-not-overlapping": (_mask("###... ...###"), False),
    "runs-not-overlapping-unequal": (_mask("###.... ...####"), False),
    "u-shape": (_mask("#...# #...# #...# #####"), False),
    "c-shape": (_mask("##### #.... #.... #####"), True),
    "hole": (_mask("##### #.#.# ##### #####"), False),
    "empty-row-inside": (_mask("###. .... .##."), False),
    # As many runs as rows, but not one run per row.
    "two-runs-over-an-empty-row": (_mask("#.# ... .#."), False),
    "one-by-n": (_mask("..... .####"), True),
    "n-by-one": (_mask("#. #. #."), True),
    "single-pixel": (_mask("... .#. ..."), True),
    "size-tie": (_mask("##.## ##.##"), False),
    "size-tie-rows": (_mask("## .. ##"), False),
    "salt-above-first-row": (_mask("....# ###.. ###.."), False),
    "salt-in-first-row": (_mask("###.# ###.. ###.."), False),
    "salt-in-last-row": (_mask("###.. ###.. ###.#"), False),
    "salt-below-last-row": (_mask("###.. ###.. ....#"), False),
    "salt-touching-first-row": (_mask("..#.. ###.. ###.."), True),
    "staircase": (_mask("##... .##.. ..##. ...##"), True),
    # Masks of many runs, for the run labeller: a comb of 512 one-pixel
    # teeth joined along its last row, full rows joined at alternate ends
    # (one run per row; each column holds many in the transposed views),
    # and random noise below, near and above the percolation threshold.
    "comb": (_comb(teeth=512, height=32), False),
    "serpentine": (_serpentine(rows=63, width=64), True),
    "noise-30": (_noise(0.3), False),
    "noise-50": (_noise(0.5), False),
    "noise-60": (_noise(0.6), False),
}


class _CountingLabeller:
    """``segment._largest_component``, the run labeller's union-find, with
    its calls counted."""

    def __init__(self):
        self.calls = 0
        self._label = segment._largest_component

    def __call__(self, start, end, width):
        self.calls += 1
        return self._label(start, end, width)


@pytest.fixture
def labelling(monkeypatch):
    counter = _CountingLabeller()
    monkeypatch.setattr(segment, "_largest_component", counter)
    return counter


@pytest.mark.parametrize("name", CRAFTED)
def test_crafted_spans_match_oracle(name, labelling):
    mask, proved = CRAFTED[name]
    for view in (mask, mask.T, mask[::-1], mask[:, ::-1]):
        assert_spans_match_oracle(view)
    labelling.calls = 0
    mask_spans(mask)
    assert labelling.calls == (0 if proved else 1)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(mask=st.one_of(_masks(), _tied_masks(), _run_masks()))
@example(mask=np.zeros((3, 4), dtype=bool))
def test_spans_match_isolate_then_row_extremes(mask):
    assert_spans_match_oracle(mask)


@pytest.mark.parametrize("shape", [(0, 4), (3, 0)])
def test_mask_without_pixels_is_rejected(shape):
    # A mask with no pixels has no object; as an image it has no pixels.
    mask = np.zeros(shape, dtype=bool)
    with pytest.raises(ValueError, match="^no object: mask has no foreground pixels$"):
        isolate_object(mask)
    with pytest.raises(ValueError, match=re.escape(f"expected a non-empty 2-D image, got shape {shape}")):
        mask_spans(mask)


@pytest.mark.parametrize("size", [256, 1024])
def test_corpus_shapes_are_proved_without_labelling(size, labelling):
    for name, spec in corpus(size, size):
        image = render(spec, size, size)
        classify_raster(image)
        # isolate_object takes the same proof.
        assert_spans_match_oracle(binarize(image))
        assert labelling.calls == 0, name


def _speckled_square(size: int) -> np.ndarray:
    clean = render(ShapeSpec.square(((size - 1) / 2, (size - 1) / 2), 0.4 * size), size, size)
    return _speckled(clean, np.random.default_rng(size))


def test_speckled_render_is_labelled(labelling):
    image = _speckled_square(512)
    classify_raster(image)
    assert labelling.calls == 1
    assert_spans_match_oracle(binarize(image))


def _peak_mib(fn, *args):
    fn(*args)  # first call: let numpy set up its caches
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_proved_path_allocates_no_second_mask():
    image = render(dict(corpus(1024, 1024))["square"], 1024, 1024)
    # The labeller's band and its changes (0.12 MiB); a 1 MiB
    # threshold mask, a labelled box and a kept mask took 3.2 MiB.
    assert _peak_mib(classify_raster, image) < 1.5


def test_labelled_path_peaks_no_higher_than_isolate_object():
    image = _speckled_square(512)

    def old_path(img):
        return old_isolate_object(binarize(img))

    assert _peak_mib(classify_raster, image) <= _peak_mib(old_path, image)


def test_labelled_path_peak_on_a_speckled_square():
    # The Otsu pair table (0.25 MiB) sets the peak, 0.32 MiB: the box is
    # the whole image, as speckle reaches every edge, and the labeller
    # thresholds it in 64 KiB bands.  A box mask and a box-sized array of
    # changes took 0.55 MiB, and labelling the box's pixels 1.51 MiB.
    assert _peak_mib(classify_raster, _speckled_square(512)) < 0.8


def _staged(image):
    """Features of the mask path, or the stage and message of its error."""
    try:
        mask = isolate_object(binarize(image))
    except ValueError as err:
        return None, ("segmentation", f"segmentation: {err}")
    try:
        return features_of_spans(mask_spans(mask)), None
    except ValueError as err:
        return None, ("feature extraction", f"feature extraction: {err}")


def test_sweep_cases_match_the_mask_path():
    seen = set()
    for name, image in cases():
        expected, expected_error = _staged(image)
        try:
            _, features = classify_raster(image)
        except StageError as err:
            assert (err.stage, str(err)) == expected_error, name
            seen.add(err.stage)
            continue
        assert expected_error is None, name
        assert np.array_equal(features.corners, expected.corners), name
        assert features.corners.dtype == expected.corners.dtype
        assert features.distances == expected.distances, name
        assert features.sd == expected.sd, name
        assert features.area_px == expected.area_px, name
        assert features.poly_area == expected.poly_area, name
    assert seen == {"segmentation", "feature extraction"}
