"""Binary segmentation of one bright object on a dark background.

All connectivity is 4-connected, for components and boundaries alike, so
diagonal speckle never bridges into the object.

The pipeline takes the object as row spans (``Spans``: each row's first
and last column, and the object's pixel total), not as a mask, from
``foreground_spans``.  They are the spans of the largest 4-connected
component, the object ``isolate_object`` keeps.  ``_box_spans`` proves
from the spans alone that the foreground is one component when every row
of its bounding box is one run overlapping the next.  When a row of the
box is empty, when the proof fails (its buffers are freed first), and
always in ``isolate_object``, ``_largest_runs`` labels the box over its
row runs, not its pixels.  It compares the box with the threshold
itself, band by band, into one reused buffer whose rows end in a
``False`` column, and takes each band's run ends from one comparison of
the flattened band with itself shifted by a slot; so no mask or array of
the box's size is made.  A binary search finds the runs each run touches
in the row above, and union-find joins them.  Past the bands, its work
and memory grow with the number of runs, not with the box: a clean or
lightly speckled object has a few per row, but a box of dense noise or
fine stripes, with hundreds of thousands, labels several times slower
than a pixel labeller would.  ``_box_spans`` reduces the kept runs to
one span per row and sums their lengths, and ``isolate_object`` paints
them into a mask.  The mask stages, ``binarize``, ``isolate_object``,
``boundary`` and ``area``, take the steps one at a time for a caller
that wants the masks; the pipeline does not call them.

Otsu's threshold of a two-level image (every pixel at its minimum or its
maximum, as in a clean render) is its lower level plus one, so no
histogram is counted for it.  ``foreground_spans`` starts from each
row's greatest value.  Under Otsu, ``_two_level`` reads them first: a
row whose greatest value is neither level holds a third one, and the
test ends there.  Otherwise it proves the two levels inside the
foreground's bounding box alone, band by band, from each band less the
threshold, wrapped to ``uint8``.  Every threshold, fixed or Otsu's, then
takes one route: ``_foreground_box`` finds the rows whose greatest value
reaches it, reads the columns from those rows, and only the box they
bound is compared with the threshold, so no mask of the image's size is
made.  For the proof, whose box has no empty row, the box is compared
with the threshold band by band, into one buffer whose rows are widened
to whole 8-byte words, with the image's columns beside the box, below
the threshold in its rows, or with ``False`` in an image too narrow for
that, so that ``_last_true`` reverses each row by copying its words, in
reverse order, into words of the other byte order; no mask of the box is
made.  The same finder gives the box of ``isolate_object``'s mask, read
as ``uint8`` against 1.  Only an image with a third level is counted
into a histogram, two pixels at a time, as ``uint16`` pairs, into one
``int32`` table of 65,536 bins, whose row and column sums fold into the
256-bin histogram; no per-pixel ``int64`` copy is made.

The four passes that read a box, the two-level test, the one-run proof's
comparison with the threshold, its row ends (``_last_true``) and the
labeller, each read it in pieces cut by one rule, ``_band_rows``: as few
bands of whole rows as hold at most ``_COMPARE_BLOCK`` (64 Ki) items
each, the rows shared out evenly.  A row wider than that is a band
alone, so a pass holds one band's scratch at a time, 64 KiB unless a
single row is wider, and no mask of the box is made.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .pgm import check_image

__all__ = [
    "Spans",
    "area",
    "binarize",
    "boundary",
    "check_mask",
    "foreground_spans",
    "isolate_object",
    "otsu_threshold",
]

#: Most pixel pairs one pass of the Otsu histogram counts into its
#: ``int32`` table.  Each pass is folded into the ``int64`` histogram, so
#: no bin, row sum or column sum of the table can overflow.
_PAIRS_PER_PASS = 1 << 29

#: Most items one band of a blocked pass holds (``_band_rows``): pixels
#: of the two-level test, bytes of the one-run proof's band and of its
#: reversed copy in ``_last_true``, slots of ``_largest_runs``.  So their
#: scratch arrays stay at 64 KiB whatever the image's size, unless a
#: single row is wider.
_COMPARE_BLOCK = 1 << 16

#: A 64-bit word of the other byte order: copying words into it reverses
#: the bytes of each.
_SWAPPED_WORD = np.dtype(np.uint64).newbyteorder()

#: One reduction per row, from its first column (``_row_maxima``).
_ROW_START = np.zeros(1, dtype=np.intp)


def _row_maxima(img: np.ndarray) -> np.ndarray:
    """``img.max(axis=1)`` of an image at least one column wide, by one
    ``reduceat`` over whole rows: faster on a C-contiguous image than
    ``max(axis=1)``, which makes one inner-loop call per row."""
    return np.maximum.reduceat(img, _ROW_START, axis=1)[:, 0]


def _band_rows(height: int, width: int) -> int:
    """Rows per band of ``height`` rows of ``width`` items: as few bands of
    whole rows, at most ``_COMPARE_BLOCK`` items each, as fit, with the rows
    shared out evenly so that no buffer is larger than the bands need.  A
    row wider than ``_COMPARE_BLOCK`` is a band alone.  The two-level test,
    the one-run proof (``_one_run_spans``, with ``_last_true``) and the
    labeller read a box in these bands, so none makes a mask of it."""
    bands = -(-height // max(1, _COMPARE_BLOCK // width))
    return -(-height // bands)


def _two_level(img: np.ndarray, top: np.ndarray) -> tuple[int, np.ndarray, tuple[slice, slice]] | None:
    """Otsu's threshold ``lo + 1`` of a checked image whose every pixel is
    its minimum ``lo`` or its maximum ``hi``, with the rows and bounding
    box of its foreground as ``_foreground_box`` gives them, else ``None``.
    ``top`` is the image's row maxima.

    Each value less ``lo + 1``, wrapped modulo 256 to ``uint8``, reads 255
    at ``lo``, ``hi - lo - 1`` at ``hi`` and less at any third level.  The
    row maxima are read that way first, and the greatest of them is ``hi``.
    ``lo`` is the least value of the whole image, so a row whose greatest
    value is ``lo`` holds nothing but ``lo``, and a row whose greatest
    value is neither ``lo`` nor ``hi`` holds a third level: the test stops
    there, before any band is read.  Otherwise only the rows whose
    greatest value is ``hi`` can hold anything but ``lo``, and of the band
    they span, only the columns whose greatest value there is above ``lo``,
    for the same reason.  So only the box they bound, the foreground's
    under ``lo + 1``, is read again: in bands of whole rows
    (``_band_rows``), each less ``lo + 1``, wrapped to ``uint8``.  A band
    has two levels exactly when its least value is at least
    ``hi - lo - 1``, and the test stops in the first band holding a third
    level.  No copy of the image is made, only one band's difference at a
    time.  A single level has no two classes to separate, so it raises
    ``ValueError``.

    With ``a`` pixels at ``lo`` and ``b`` at ``hi``, every threshold in
    ``(lo, hi]`` splits the histogram into the same two classes: weights
    ``a`` and ``b``, masses ``a lo`` and ``b hi``.  These are integers
    below 2**53 for any image of fewer than 2**45 pixels, so they are exact
    in ``float64``, and ``a lo / a`` and ``b hi / b`` round to the exact
    means ``lo`` and ``hi``.  The
    between-class variance is therefore the same float at every such
    threshold, and any other threshold leaves a class empty; variance ties
    resolve low, so Otsu's threshold is ``lo + 1``.
    """
    lo, hi = int(img.min()), int(top.max())
    if lo == hi:
        raise ValueError("degenerate histogram: single distinct intensity")
    floor = hi - lo - 1
    if np.subtract(top, lo + 1, dtype=np.uint8, casting="unsafe").min() < floor:
        return None
    rows, box = _foreground_box(img, lo + 1, top)
    part = img[box]
    step = _band_rows(*part.shape)
    for r in range(0, len(part), step):
        if np.subtract(part[r:r + step], lo + 1, dtype=np.uint8, casting="unsafe").min() < floor:
            return None
    return lo + 1, rows, box


def _histogram(image: np.ndarray) -> np.ndarray:
    """Counts of the intensities 0..255 of a ``uint8``-castable image.

    Pixel pairs ``(a, b)``, viewed as one ``uint16``, are counted into a
    256x256 table; ``a`` is the table's row or column depending on byte
    order, so adding both axis sums counts each pixel once either way.
    """
    flat = np.ascontiguousarray(image, dtype=np.uint8).ravel()
    hist = np.zeros(256, dtype=np.int64)
    pairs = flat[: len(flat) - len(flat) % 2].view(np.uint16)
    table = np.zeros(65536, dtype=np.int32)
    for start in range(0, len(pairs), _PAIRS_PER_PASS):
        if start:
            table[:] = 0
        # An int32 scalar keeps add.at on its fast path; a Python 1 does not.
        np.add.at(table, pairs[start:start + _PAIRS_PER_PASS], np.int32(1))
        square = table.reshape(256, 256)
        hist += square.sum(axis=0)
        hist += square.sum(axis=1)
    if len(flat) % 2:
        hist[flat[-1]] += 1
    return hist


def _histogram_threshold(image: np.ndarray) -> int:
    """Otsu's threshold of a checked image of at least three levels, from
    its full histogram."""
    hist = _histogram(image).astype(np.float64)
    weight = np.cumsum(hist)
    mass = np.cumsum(hist * np.arange(256))
    w0 = weight[:-1]
    w1 = weight[-1] - w0
    valid = (w0 > 0) & (w1 > 0)
    mu0 = np.divide(mass[:-1], w0, out=np.zeros(255), where=valid)
    mu1 = np.divide(mass[-1] - mass[:-1], w1, out=np.zeros(255), where=valid)
    variance = np.where(valid, w0 * w1 * (mu0 - mu1) ** 2, -1.0)
    return int(np.argmax(variance)) + 1


def otsu_threshold(image: np.ndarray) -> int:
    """Threshold maximizing between-class histogram variance.

    Returns ``t`` such that foreground is ``intensity >= t``; variance ties
    resolve toward the lower threshold.  An image with a single distinct
    intensity has no two classes to separate.  The input must pass
    ``pgm.check_image`` (a non-empty 2-D array of integers in 0..255),
    else ``ValueError``.  A two-level image's threshold is its lower level
    plus one (``_two_level``), proved from its row maxima and, in bands of
    64 Ki pixels, its foreground's bounding box; only an image with a third
    level is counted into a histogram (see the module docstring).
    """
    img = check_image(image)
    found = _two_level(img, _row_maxima(img))
    return _histogram_threshold(img) if found is None else found[0]


def _fixed_threshold(threshold) -> int | None:
    """The fixed threshold ``threshold`` names, or ``None`` for Otsu's.

    A real number ``t`` in [0, 255] names its ceiling, the least level at
    or above it, so that the foreground is ``intensity >= t`` whether or
    not ``t`` is whole.  A ``bool``, or anything that is not a
    ``numbers.Real``, is no threshold.
    """
    if isinstance(threshold, str):
        if threshold != "otsu":
            raise ValueError(f"unknown threshold method {threshold!r}")
        return None
    if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real):
        raise ValueError(f"fixed threshold {threshold!r} is not an integer")
    if not 0 <= threshold <= 255:  # NaN fails too
        raise ValueError(f"fixed threshold {threshold} outside [0, 255]")
    return math.ceil(threshold)


def binarize(image: np.ndarray, threshold="otsu") -> np.ndarray:
    """Foreground mask: ``intensity >= t`` with ``t`` fixed or from Otsu.

    The image must pass ``pgm.check_image`` for either method.
    """
    img = check_image(image)
    t = _fixed_threshold(threshold)
    return img >= (otsu_threshold(img) if t is None else t)


def foreground_spans(image: np.ndarray, threshold="otsu") -> Spans:
    """``Spans`` of the largest 4-connected component of the foreground,
    the object ``isolate_object(binarize(image, threshold))`` keeps, with
    the same ``ValueError``s, and no mask of the image's size.

    The image's row maxima serve twice: ``_two_level`` tests them under
    Otsu, and the rows whose greatest value reaches the threshold are the
    rows that hold foreground.  The columns are read from those rows, and
    only the foreground's bounding box is compared with the threshold.  A
    two-level image under Otsu takes its rows and box from ``_two_level``,
    which tested that box; an image with a third level goes from the test
    of its row maxima straight to its histogram.
    """
    return _foreground_spans(check_image(image), threshold)


def _foreground_spans(img: np.ndarray, threshold) -> Spans:
    """``foreground_spans`` of an image that has passed ``check_image``."""
    t = _fixed_threshold(threshold)
    top = _row_maxima(img)
    found = None if t is not None else _two_level(img, top)
    if found is None:
        if t is None:
            t = _histogram_threshold(img)
        found = t, *_foreground_box(img, t, top)
    # The row maxima are freed before the box is thresholded.
    del top
    return _box_spans(img, *found)


def check_mask(mask: np.ndarray) -> np.ndarray:
    """``mask`` as a ``bool`` array if it is 2-D, else ``ValueError``."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got shape {m.shape}")
    return m


class Spans(NamedTuple):
    """Foreground rows ``ys``, top to bottom, with each row's ``first`` and
    ``last`` foreground column (all ``intp``), and the ``area``, the number
    of foreground pixels in all the rows."""

    ys: np.ndarray
    first: np.ndarray
    last: np.ndarray
    area: int


def _foreground_box(a: np.ndarray, t: int, top: np.ndarray) -> tuple[np.ndarray, tuple[slice, slice]]:
    """The rows of ``a`` holding a value of at least ``t``, those whose
    greatest value ``top`` reaches it, and the bounding box of those
    values.  ``isolate_object`` reads its mask as the ``uint8`` view with
    ``t`` 1."""
    rows = (top >= t).nonzero()[0]
    if len(rows) == 0:
        raise ValueError("no object: mask has no foreground pixels")
    # The columns are read from the foreground's rows alone, as uint8:
    # the values lie in 0..255, and a wider dtype's maxima cost more memory.
    band = slice(rows[0], rows[-1] + 1)
    cols = (np.maximum.reduce(a[band], axis=0, dtype=np.uint8) >= t).nonzero()[0]
    return rows, (band, slice(cols[0], cols[-1] + 1))


def _largest_runs(img: np.ndarray, t: int, box: tuple[slice, slice]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, first columns and last columns (``intp``), in ``box``, of the
    runs of the largest 4-connected component of the foreground
    ``img >= t`` inside the box ``box`` of a 2-D array, in row-major order.

    Components are labelled over row runs, not pixels.  Each row gets a
    ``False`` column at its end, so in the flattened rows of ``width``
    slots the runs start and end at alternate changes of value, and a
    run's start ``s`` and end ``e`` (exclusive) lie in one row.  The box
    is compared with ``t`` in bands of whole rows (``_band_rows``), into
    one buffer of ``width`` columns whose last stays ``False``, after one
    ``False`` slot; each band's changes are then one comparison of the
    flattened buffer with itself shifted by a slot.
    The runs one row up that touch a run are those ending after
    ``s - width`` and starting before ``e - width``; no run of another
    row lies between them.  Runs are joined by union-find: each root is
    hooked to the smallest root it touches, then pointers are jumped to
    their roots, until no edge joins two trees.  Every hook points to an
    earlier run, so a root is its component's first run, and size ties
    resolve to the component whose first pixel comes earliest in
    row-major order.
    """
    part = img[box]
    h, w = part.shape
    width = w + 1
    step = _band_rows(h, width)
    # The slot before the first row and each row's extra column stay
    # False, so every row's first pixel and its extra column each read
    # against a False slot.
    slots = np.zeros(1 + step * width, dtype=bool)
    rows = slots[1:].reshape(step, width)
    changes = np.empty(step * width, dtype=bool)
    found = []
    for r in range(0, h, step):
        band = part[r:r + step]
        np.greater_equal(band, t, out=rows[:len(band), :w])
        size = len(band) * width
        np.not_equal(slots[1:size + 1], slots[:size], out=changes[:size])
        found.append(np.flatnonzero(changes[:size]) + r * width)
    del slots, rows, changes
    ends = np.concatenate(found)
    del found
    start, end = ends[0::2], ends[1::2]
    # One edge from each run to each run it touches one row up, the last
    # of them run hi - 1.  A run's edges are numbered on from
    # cumsum(touched) - touched, so edge i goes to run i + hi - cumsum(touched).
    hi = np.searchsorted(start, end - width)
    touched = hi - np.searchsorted(end, start - width, side="right")
    below = np.repeat(np.arange(len(start)), touched)
    hi -= np.cumsum(touched)
    above = np.arange(len(below)) + np.repeat(hi, touched)
    del hi, touched
    root = np.arange(len(start))
    while True:
        a, b = root[below], root[above]
        if np.array_equal(a, b):
            break
        # An edge within a tree hooks its root to itself, which changes
        # nothing: every label is at most its run's index.
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        del jumped
    # Freed before sizing, which would otherwise set the labeller's peak.
    del below, above, a, b
    # Counted as intp: bincount's weights would make a float64 copy.
    sizes = np.zeros(len(start), dtype=np.intp)
    np.add.at(sizes, root, end - start)
    kept = root == sizes.argmax()
    start, end = start[kept], end[kept]
    rows = start // width
    return rows, start - rows * width, end - 1 - rows * width


def isolate_object(mask: np.ndarray) -> np.ndarray:
    """Keep only the largest 4-connected foreground component.

    Only the bounding box of the foreground is labelled, by its row runs
    (``_largest_runs``, on the mask read as ``uint8`` against 1, as
    ``_foreground_box`` reads it); the kept runs are painted into a new
    ``bool`` mask of the input's shape.  Size ties resolve to the
    component whose first pixel comes earliest in row-major order.
    """
    m = check_mask(mask)
    a = m.view(np.uint8)
    _, box = _foreground_box(a, 1, a.max(axis=1, initial=0))
    rows, first, last = _largest_runs(a, 1, box)
    # In the flattened mask, gaps and kept runs alternate from a gap at the
    # first pixel to one at the last, so the mask repeats False and True
    # over their lengths (a gap between two rows can be empty).
    start = (box[0].start + rows) * m.shape[1] + box[1].start + first
    edges = np.empty(2 * len(rows) + 2, dtype=np.intp)
    edges[0], edges[-1] = 0, m.size
    edges[1:-1:2] = start
    edges[2:-1:2] = start + (last - first + 1)
    kept = np.zeros(len(edges) - 1, dtype=bool)
    kept[1::2] = True
    return np.repeat(kept, np.diff(edges)).reshape(m.shape)


def _last_true(words: np.ndarray, flipped: np.ndarray, turned: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out``, set to the last ``True`` of each row of a ``bool`` band
    whose rows are whole 8-byte words, counted back from the row's last
    column, or to 0 where a row has none.  ``words`` is the band viewed
    as ``uint64``; ``flipped`` and ``turned`` are one buffer of at least as
    many rows, viewed as words of the other byte order and as ``bool``.

    The last is the first ``True`` of the row reversed, and a row of whole
    8-byte words is reversed by reversing the order of its words and the
    bytes in each word.  So the band is copied, word order reversed, into
    ``flipped``, and ``argmax`` reads it as ``turned``."""
    n = len(words)
    flipped[:n] = words[:, ::-1]
    return turned[:n].argmax(axis=1, out=out)


def _one_run_spans(img: np.ndarray, t: int, rows: np.ndarray, box: tuple[slice, slice]) -> Spans | None:
    """``Spans`` of the foreground ``img >= t`` if every row of its
    bounding box ``box`` is one run overlapping the columns of the next,
    so that the foreground is one component, else ``None``.  ``rows`` are
    the rows holding foreground, as ``_foreground_box`` gives them, and
    every row of the box is one of them.

    The box's rows are compared with ``t`` in bands (``_band_rows``) into
    one buffer whose rows are whole 8-byte words, as ``_last_true`` takes
    them.  Its columns are the box's and, beside them, as many of the
    image's as it takes to fill the last word: in the box's rows those are
    below ``t``, so they read ``False``.  Only in an image too narrow for
    that are the columns past the box's set to ``False``.  Each band
    gives its rows' first columns, last columns (``_last_true``, counted
    back from the buffer's last column) and pixel count, and the proof
    fails at the first band holding a row that is not one run.  Whether
    each row overlaps the next, across band edges too, is tested once
    after the last band, from the row ends alone.  The buffer, and the one
    ``_last_true`` reverses into, are made once, so no mask of the box is
    made, and both are freed on return.
    """
    height = len(rows)
    left, width = box[1].start, box[1].stop - box[1].start
    padded = -(-width // 8) * 8
    step = _band_rows(height, padded)
    # The band, and the reversed band _last_true reads, in one buffer.
    buffer = np.empty((2, step, padded), dtype=bool)
    band, turned = buffer
    if padded <= img.shape[1]:
        left = min(left, img.shape[1] - padded)
        image, cols = img[box[0], left:left + padded], band
    else:
        image, cols = img[box], band[:, :width]
        band[:, width:] = False
    words = buffer.view(np.uint64)[0]
    flipped = buffer.view(_SWAPPED_WORD)[1]
    # Each row's first column, and its last counted back from padded - 1,
    # so that the row's span is padded - head - tail columns wide.
    ends = np.empty((2, height), dtype=np.intp)
    head, tail = ends
    total = 0
    for r in range(0, height, step):
        part = image[r:r + step]
        n = len(part)
        np.greater_equal(part, t, out=cols[:n])
        band[:n].argmax(axis=1, out=head[r:r + n])
        _last_true(words[:n], flipped, turned, tail[r:r + n])
        count = int(np.count_nonzero(band[:n]))
        # A row's count is at most the width of its span, so the counts
        # are equal only if every row is one run.
        if count != n * padded - ends[:, r:r + n].sum():
            return None
        total += count
    # Rows i and i + 1 overlap when head[i + 1] + tail[i] and
    # head[i] + tail[i + 1] are both below padded.
    if (ends[:, 1:] + ends[::-1, :-1]).max(initial=0) >= padded:
        return None
    return Spans(rows, left + head, left + padded - 1 - tail, total)


def _box_spans(img: np.ndarray, t: int, rows: np.ndarray, box: tuple[slice, slice]) -> Spans:
    """``Spans`` of the largest 4-connected component of the foreground
    ``img >= t``, the object ``isolate_object`` keeps, from the rows
    ``rows`` holding foreground and its bounding box ``box``, as
    ``_foreground_box`` gives them.

    The foreground is proved to be one component, without labelling it,
    when its bounding box has no empty row, every row is one run, and each
    run overlaps the columns of the next (``_one_run_spans``, in bands).
    An empty row rejects the proof before any pixel is compared with
    ``t``.  Where the proof fails or is rejected, the box is labelled by
    its row runs (``_largest_runs``, which compares it with ``t`` band by
    band), the kept runs are reduced to one span per row, and their
    lengths are summed to the pixel total; no label raster or kept mask is
    made.
    """
    # The empty-row test only rejects early: the one-run test fails on an
    # empty row too.
    if len(rows) == box[0].stop - box[0].start:
        spans = _one_run_spans(img, t, rows, box)
        if spans is not None:
            return spans
    ys, first, last = _largest_runs(img, t, box)
    # The runs are in row-major order: a row's first run holds its first
    # column and its last run its last.
    heads = np.flatnonzero(np.diff(ys, prepend=-1))
    tails = np.append(heads[1:], len(ys)) - 1
    return Spans(
        box[0].start + ys[heads],
        box[1].start + first[heads],
        box[1].start + last[tails],
        int(np.sum(last - first + 1)),
    )


def boundary(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels with a background or out-of-bounds 4-neighbor.

    Returns an (N, 2) integer array of (x, y) coordinates in row-major
    scan order.
    """
    m = check_mask(mask)
    if not m.any():
        raise ValueError("no object: mask has no foreground pixels")
    padded = np.pad(m, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    ys, xs = np.nonzero(m & ~interior)
    return np.column_stack([xs, ys]).astype(np.int64)


def area(mask: np.ndarray) -> int:
    """Number of foreground pixels of a 2-D mask."""
    return int(np.count_nonzero(check_mask(mask)))
