"""Binary segmentation of one bright object on a dark background.

All connectivity is 4-connected, for components and boundaries alike, so
diagonal speckle never bridges into the object.

The pipeline takes the object as row spans (``Spans``: each row's first
and last column, and the object's pixel total), not as a mask, from
``foreground_spans``.  They are the spans of the largest 4-connected
component, the object ``isolate_object`` keeps.  ``_box_spans`` proves
from the spans alone that the foreground is one component when every row
of its bounding box is one run overlapping the next.  When that proof
fails, and always in ``isolate_object``, the box is labelled by
``_largest_runs`` over its row runs, not its pixels: one pass finds the
runs, a binary search finds the runs each one touches in the row above,
and union-find joins them.  Past the first pass, its work grows with the
number of runs, not with the box: a clean or lightly speckled object has
a few per row, but a box of dense noise or fine stripes, with hundreds of
thousands, labels several times slower than a pixel labeller would.
``_box_spans`` reduces the kept runs to one span per row and sums their
lengths, and ``isolate_object`` paints them into a mask.  The mask
stages, ``binarize``, ``isolate_object``, ``boundary`` and ``area``,
take the steps one at a time for a caller that wants the masks; the
pipeline does not call them.

Otsu's threshold of a two-level image (every pixel at its minimum or its
maximum, as in a clean render) is its lower level plus one, so no
histogram is counted for it.  One pass over blocks of 64 Ki pixels,
``_two_level``, proves the two levels from each block less the
threshold, wrapped to ``uint8``, in a one-block buffer, and can gather
the rows that hold foreground on the way.  ``foreground_spans`` takes
every threshold, fixed or Otsu's, through one route: ``_foreground_box``
finds the rows holding a value at or above it (from that pass when it
ran, else from each row's greatest value), reads the columns from those
rows, and only the box they bound is compared with the threshold, so no
mask of the image's size is made.  The same finder gives the box of
``isolate_object``'s mask, read as ``uint8`` against 1.  Only an image
with a third level is counted into a histogram, two pixels at a time, as
``uint16`` pairs, into one ``int32`` table of 65,536 bins, whose row and
column sums fold into the 256-bin histogram; no per-pixel ``int64`` copy
is made.
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

#: Most pixels one block of the two-level test covers, so that its
#: scratch buffer stays at 64 KiB whatever the image's size.
_COMPARE_BLOCK = 1 << 16


def _two_level(img: np.ndarray, row_least: np.ndarray | None = None) -> int | None:
    """Otsu's threshold ``lo + 1`` of a checked image whose every pixel is
    its minimum ``lo`` or its maximum ``hi``, else ``None``.

    The image is read in blocks of at most ``_COMPARE_BLOCK`` pixels, whole
    rows where they fit.  Each block less ``lo + 1`` is written, wrapping
    modulo 256, to a ``uint8`` scratch buffer of one block.  There ``lo``
    reads 255, ``hi`` reads ``hi - lo - 1`` and any third level less, so a
    block has two levels exactly when its least value is at least
    ``hi - lo - 1``; the test stops in the first block holding a third
    level.  No copy of the image is made, and the buffer is freed on
    return.  A single level has no two classes to separate, so it raises
    ``ValueError``.

    ``row_least``, if given, is a ``uint8`` array of ``height`` 255s.  The
    least value of each row is gathered into it from the blocks that hold
    foreground, so it stays 255 exactly where a row holds none.

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
    lo, hi = int(img.min()), int(img.max())
    if lo == hi:
        raise ValueError("degenerate histogram: single distinct intensity")
    floor = hi - lo - 1
    height, width = img.shape
    rows, cols = max(1, _COMPARE_BLOCK // width), min(width, _COMPARE_BLOCK)
    mem = np.empty(min(img.size, _COMPARE_BLOCK), dtype=np.uint8)
    if row_least is not None:
        # A block is whole rows or a piece of one row, so it fills one
        # stretch of memory, and its rows start every ``cols`` bytes of it.
        starts = np.arange(0, rows * cols, cols)
    for r in range(0, height, rows):
        for c in range(0, width, cols):
            block = img[r:r + rows, c:c + cols]
            flat = mem[:block.size]
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
            if block_least != 255 and row_least is not None:
                band = row_least[r:r + rows]
                np.minimum(band, np.minimum.reduceat(flat, starts[:len(s)]), out=band)
    return lo + 1


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
    plus one (``_two_level``), found in blocks of 64 Ki pixels; only an
    image with a third level is counted into a histogram (see the module
    docstring).
    """
    img = check_image(image)
    t = _two_level(img)
    return _histogram_threshold(img) if t is None else t


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

    Only the foreground's bounding box is compared with the threshold.
    For a two-level image under Otsu, the test of ``_two_level`` also finds
    the rows that hold foreground; otherwise they are the rows whose
    greatest value reaches the threshold.  The columns are read from those
    rows.  An image with a third level goes from that test straight to its
    histogram.
    """
    img = check_image(image)
    t = _fixed_threshold(threshold)
    rows = None
    if t is None:
        row_least = np.full(img.shape[0], 255, dtype=np.uint8)
        t = _two_level(img, row_least)
        if t is None:
            # A third level: the row minima are dropped before the pair
            # table is made.
            del row_least
            t = _histogram_threshold(img)
        else:
            rows = (row_least != 255).nonzero()[0]
    rows, box = _foreground_box(img, t, rows)
    return _box_spans(img[box] >= t, rows, box)


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


def _foreground_box(a: np.ndarray, t: int, rows: np.ndarray | None = None) -> tuple[np.ndarray, tuple[slice, slice]]:
    """The rows of ``a`` holding a value of at least ``t``, unless given as
    ``rows``, and the bounding box of those values.  ``isolate_object``
    reads its mask as the ``uint8`` view with ``t`` 1."""
    if rows is None:
        rows = (a.max(axis=1, initial=0) >= t).nonzero()[0]
    if len(rows) == 0:
        raise ValueError("no object: mask has no foreground pixels")
    # The columns are read from the foreground's rows alone.
    band = slice(rows[0], rows[-1] + 1)
    cols = (a[band].max(axis=0) >= t).nonzero()[0]
    return rows, (band, slice(cols[0], cols[-1] + 1))


def _largest_runs(box: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def isolate_object(mask: np.ndarray) -> np.ndarray:
    """Keep only the largest 4-connected foreground component.

    Only the bounding box of the foreground is labelled, by its row runs
    (``_largest_runs``); the kept runs are painted into a new ``bool`` mask
    of the input's shape.  Size ties resolve to the component whose first
    pixel comes earliest in row-major order.
    """
    m = check_mask(mask)
    _, box = _foreground_box(m.view(np.uint8), 1)
    rows, first, last = _largest_runs(m[box])
    # In the flattened mask, gaps and kept runs alternate from a gap at the
    # first pixel to one at the last, so the mask repeats False and True
    # over their lengths (a gap between two rows can be empty).
    start = (box[0].start + rows.astype(np.intp)) * m.shape[1] + box[1].start + first
    edges = np.empty(2 * len(rows) + 2, dtype=np.intp)
    edges[0], edges[-1] = 0, m.size
    edges[1:-1:2] = start
    edges[2:-1:2] = start + (last - first + 1)
    kept = np.zeros(len(edges) - 1, dtype=bool)
    kept[1::2] = True
    return np.repeat(kept, np.diff(edges)).reshape(m.shape)


def _run_ends(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, int] | None:
    """First and last ``True`` column of each row of a 2-D ``bool`` array,
    and its pixel total, if each of its rows is one run, else ``None``.

    The last is the first ``True`` of the row reversed.  ``argmax`` copies
    a reversed array, so it takes bands of at most ``_COMPARE_BLOCK``
    pixels (whole rows) at a time.  An empty row reads as a span of the
    whole width.  A row's count is at most the width of its span, so the
    totals are equal only if every row's are."""
    height, width = rows.shape
    last = np.empty(height, dtype=np.intp)
    step = max(1, _COMPARE_BLOCK // width)
    for r in range(0, height, step):
        rows[r:r + step, ::-1].argmax(axis=1, out=last[r:r + step])
    np.subtract(width - 1, last, out=last)
    first = rows.argmax(axis=1)
    total = int(np.count_nonzero(rows))
    if total != np.sum(last - first + 1):
        return None
    return first, last, total


def _box_spans(m: np.ndarray, rows: np.ndarray, box: tuple[slice, slice]) -> Spans:
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
        ends = _run_ends(m)
        if ends:
            first, last, total = ends
            if (np.maximum(first[1:], first[:-1]) <= np.minimum(last[1:], last[:-1])).all():
                return Spans(rows, left + first, left + last, total)
    ys, first, last = _largest_runs(m)
    # The runs are in row-major order: a row's first run holds its first
    # column and its last run its last.
    heads = np.flatnonzero(np.diff(ys, prepend=-1))
    tails = np.append(heads[1:], len(ys)) - 1
    return Spans(
        np.add(top, ys[heads], dtype=np.intp),
        np.add(left, first[heads], dtype=np.intp),
        np.add(left, last[tails], dtype=np.intp),
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
    """Number of foreground pixels."""
    return int(np.count_nonzero(np.asarray(mask, dtype=bool)))
