"""Binary segmentation of one bright object on a dark background.

All connectivity is 4-connected, for components and boundaries alike, so
diagonal speckle never bridges into the object.

The pipeline takes the object as row spans (``Spans``: each row's first
and last column, and the object's pixel total), not as a mask, from
``foreground_spans``.  They are the spans of the largest 4-connected
component, the object ``isolate_object`` keeps, and both take them from
one labeller, ``_largest_runs``, which labels the foreground's bounding
box over its row runs, not its pixels.  It compares the box with the
threshold itself, band by band, into one reused buffer whose rows end
in a ``False`` column, and takes each band's run ends from one
comparison of the flattened band with itself shifted by a slot; so no
mask or array of the box's size is made.  When there are as many runs
as rows and each overlaps the one before it, every row is one run
overlapping the next and the foreground is one component, as in a clean
render: the runs are kept as they are.  Otherwise a binary search finds
the runs each run touches in the row above, and union-find joins them
(``_largest_component``).  Past the bands, its work and memory grow with
the number of runs, not with the box: a clean or lightly speckled object
has a few per row, but a box of dense noise or fine stripes, with
hundreds of thousands, labels several times slower than a pixel
labeller would.  ``_box_spans`` sums the kept runs' lengths and, where
a row holds more than one, reduces them to one span per row, and
``isolate_object`` paints them into a mask.  The mask stages,
``binarize``, ``isolate_object``, ``boundary`` and ``area``, take the
steps one at a time for a caller that wants the masks; the pipeline
does not call them.

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
bound is compared with the threshold, by the labeller, so no mask of the
image's size is made.  The same finder gives the box of
``isolate_object``'s mask, read as ``uint8`` against 1.  Only an image
with a third level is counted into a histogram, two pixels at a time,
as ``uint16`` pairs, into one ``int32`` table of 65,536 bins, whose row
and column sums fold into the 256-bin histogram; no per-pixel ``int64``
copy is made.

The two passes that read a box, the two-level test and the labeller,
each read it in pieces cut by one rule, ``_band_rows``: as few bands of
whole rows as hold at most ``_COMPARE_BLOCK`` (64 Ki) items each, the
rows shared out evenly.  A row wider than that is a band alone, so a
pass holds one band's scratch at a time, 64 KiB unless a single row is
wider, and no mask of the box is made.
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
#: of the two-level test, slots of ``_largest_runs``.  So their scratch
#: arrays stay at 64 KiB whatever the image's size, unless a single row is
#: wider.
_COMPARE_BLOCK = 1 << 16

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
    row wider than ``_COMPARE_BLOCK`` is a band alone.  The two-level test
    and the labeller read a box in these bands, so neither makes a mask of
    it."""
    bands = -(-height // max(1, _COMPARE_BLOCK // width))
    return -(-height // bands)


def _two_level(img: np.ndarray, top: np.ndarray) -> tuple[int, tuple[slice, slice]] | None:
    """Otsu's threshold ``lo + 1`` of a checked image whose every pixel is
    its minimum ``lo`` or its maximum ``hi``, with the bounding box of its
    foreground as ``_foreground_box`` gives it, else ``None``.
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
    box = _foreground_box(img, lo + 1, top)
    part = img[box]
    step = _band_rows(*part.shape)
    for r in range(0, len(part), step):
        if np.subtract(part[r:r + step], lo + 1, dtype=np.uint8, casting="unsafe").min() < floor:
            return None
    return lo + 1, box


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
    two-level image under Otsu takes its box from ``_two_level``,
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
        found = t, _foreground_box(img, t, top)
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


def _foreground_box(a: np.ndarray, t: int, top: np.ndarray) -> tuple[slice, slice]:
    """The bounding box of the values of ``a`` of at least ``t``, whose
    rows are those whose greatest value ``top`` reaches it.
    ``isolate_object`` reads its mask as the ``uint8`` view with ``t``
    1."""
    rows = (top >= t).nonzero()[0]
    if len(rows) == 0:
        raise ValueError("no object: mask has no foreground pixels")
    # The columns are read from the foreground's rows alone, as uint8:
    # the values lie in 0..255, and a wider dtype's maxima cost more memory.
    band = slice(rows[0], rows[-1] + 1)
    cols = (np.maximum.reduce(a[band], axis=0, dtype=np.uint8) >= t).nonzero()[0]
    return band, slice(cols[0], cols[-1] + 1)


def _largest_runs(img: np.ndarray, t: int, box: tuple[slice, slice]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, first columns and last columns (``intp``), in ``box``, of the
    runs of the largest 4-connected component of the foreground
    ``img >= t`` inside its bounding box ``box`` (as ``_foreground_box``
    gives it) of a 2-D array, in row-major order.

    Components are labelled over row runs, not pixels.  Each row gets a
    ``False`` column at its end, so in the flattened rows of ``width``
    slots the runs start and end at alternate changes of value, and a
    run's start ``s`` and end ``e`` (exclusive) lie in one row.  The box
    is compared with ``t`` in bands of whole rows (``_band_rows``), into
    one buffer of ``width`` columns whose last stays ``False``, after one
    ``False`` slot; each band's changes are then one comparison of the
    flattened buffer with itself shifted by a slot.
    The runs one row up that touch a run are those ending after
    ``s - width`` and starting before ``e - width``; no run of another row
    lies between them.  So a run can touch the run just before it only if
    that run lies in the row above, and when there are as many runs as
    rows and each touches the one before it, every row is one run
    overlapping the next, the foreground is one component, and its runs
    are returned as they are.  Otherwise ``_largest_component`` joins
    them.
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
        found.append(changes[:size].nonzero()[0] + r * width)
    del slots, rows, changes
    ends = np.concatenate(found)
    del found
    start, end = ends[0::2], ends[1::2]
    if not (len(start) == h and ((start[1:] - width < end[:-1]) & (end[1:] - width > start[:-1])).all()):
        start, end = _largest_component(start, end, width)
    rows, first = np.divmod(start, width)
    return rows, first, end - 1 - rows * width


def _largest_component(start: np.ndarray, end: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The starts and ends of the runs of the largest 4-connected
    component among the runs ``start``, ``end`` of ``_largest_runs``, in
    flattened rows of ``width`` slots.

    The runs one row up that each run touches are found by binary search
    on those bounds.  Runs are joined by union-find: each root is hooked to
    the smallest root it touches, then pointers are jumped to their roots,
    until no edge joins two trees.  Every hook points to an earlier run, so
    a root is its component's first run, and size ties resolve to the
    component whose first pixel comes earliest in row-major order.
    """
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
    return start[kept], end[kept]


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
    box = _foreground_box(a, 1, a.max(axis=1, initial=0))
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


def _box_spans(img: np.ndarray, t: int, box: tuple[slice, slice]) -> Spans:
    """``Spans`` of the largest 4-connected component of the foreground
    ``img >= t``, the object ``isolate_object`` keeps, from its bounding
    box ``box``, as ``_foreground_box`` gives it.

    The box is labelled by its row runs (``_largest_runs``, which
    compares it with ``t`` band by band), and the kept runs' lengths are
    summed to the pixel total; no label raster or kept mask is made.  A
    component's rows are contiguous, so only when it has more runs than
    rows are they reduced to one span per row.
    """
    ys, first, last = _largest_runs(img, t, box)
    total = int((last - first + 1).sum())
    if len(ys) > ys[-1] - ys[0] + 1:
        # The runs are in row-major order: a row's first run holds its
        # first column and its last run its last.
        heads = np.flatnonzero(np.diff(ys, prepend=-1))
        tails = np.append(heads[1:], len(ys)) - 1
        ys, first, last = ys[heads], first[heads], last[tails]
    return Spans(box[0].start + ys, box[1].start + first, box[1].start + last, total)


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
