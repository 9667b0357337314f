"""Binary segmentation of one bright object on a dark background.

All connectivity is 4-connected, for components and boundaries alike, so
diagonal speckle never bridges into the object.

The pipeline takes the object as row spans (``Spans``: each row's first
and last column and its pixel count), not as a mask.  ``object_spans``
proves from the spans alone that the foreground is one component when
every row of its bounding box is one run overlapping the next.  When that
proof fails, and always in ``isolate_object``, the box is labelled by
``_largest_runs`` over its row runs, not its pixels: one pass finds the
runs, a binary search finds the runs each one touches in the row above,
and union-find joins them.  Past the first pass, its work grows with the
number of runs, not with the box: a clean or lightly speckled object has
a few per row, but a box of dense noise or fine stripes, with hundreds
of thousands, labels several times slower than a pixel labeller would.
``object_spans`` reduces the kept runs to one span per row, and
``isolate_object`` paints them into a mask.

The Otsu histogram avoids a per-pixel ``int64`` copy.  The histogram of
a two-level image (every pixel at its minimum or its maximum, as in a
clean render) is counted by comparing the pixels with those two levels,
block by block.  An image with a third level is counted two pixels at a
time, as ``uint16`` pairs, into one ``int32`` table of 65,536 bins, whose
row and column sums fold into the 256-bin histogram.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .pgm import check_image

__all__ = [
    "Spans",
    "area",
    "binarize",
    "boundary",
    "check_mask",
    "isolate_object",
    "object_spans",
    "otsu_threshold",
    "row_spans",
]

#: Most pixel pairs one pass of the Otsu histogram counts into its
#: ``int32`` table.  Each pass is folded into the ``int64`` histogram, so
#: no bin, row sum or column sum of the table can overflow.
_PAIRS_PER_PASS = 1 << 29

#: Most pixels one comparison of the two-level count covers, so that its
#: ``bool`` buffer stays at 64 KiB whatever the image's size.
_COMPARE_BLOCK = 1 << 16


def _two_level_histogram(flat: np.ndarray) -> np.ndarray | None:
    """Histogram of ``flat`` if every pixel is its minimum or maximum, else ``None``.

    Gives up at the first block holding a third level.
    """
    lo, hi = flat.min(), flat.max()
    hist = np.zeros(256, dtype=np.int64)
    if lo == hi:
        hist[lo] = len(flat)
        return hist
    equal = np.empty(min(len(flat), _COMPARE_BLOCK), dtype=bool)
    for start in range(0, len(flat), _COMPARE_BLOCK):
        block = flat[start:start + _COMPARE_BLOCK]
        out = equal[:len(block)]
        lows = np.count_nonzero(np.equal(block, lo, out=out))
        highs = np.count_nonzero(np.equal(block, hi, out=out))
        if lows + highs != len(block):
            return None
        hist[lo] += lows
        hist[hi] += highs
    return hist


def _histogram(image: np.ndarray) -> np.ndarray:
    """Counts of the intensities 0..255 of a ``uint8``-castable image.

    A two-level image is counted by comparison (``_two_level_histogram``).
    Otherwise pixel pairs ``(a, b)``, viewed as one ``uint16``, are counted
    into a 256x256 table; ``a`` is the table's row or column depending on
    byte order, so adding both axis sums counts each pixel once either way.
    """
    flat = np.ascontiguousarray(image, dtype=np.uint8).ravel()
    # The comparison buffer is freed on return, before the pair table exists.
    hist = _two_level_histogram(flat)
    if hist is not None:
        return hist
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


def otsu_threshold(image: np.ndarray) -> int:
    """Threshold maximizing between-class histogram variance.

    Returns ``t`` such that foreground is ``intensity >= t``; variance ties
    resolve toward the lower threshold.  An image with a single distinct
    intensity has no two classes to separate.  The input must pass
    ``pgm.check_image`` (a non-empty 2-D array of integers in 0..255),
    else ``ValueError``.  The histogram is counted in pixel pairs (see the
    module docstring).
    """
    hist = _histogram(check_image(image)).astype(np.float64)
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


def binarize(image: np.ndarray, threshold="otsu") -> np.ndarray:
    """Foreground mask: ``intensity >= t`` with ``t`` fixed or from Otsu.

    The image must pass ``pgm.check_image`` for either method.
    """
    img = check_image(image)
    if isinstance(threshold, str):
        if threshold != "otsu":
            raise ValueError(f"unknown threshold method {threshold!r}")
        t = otsu_threshold(img)
    else:
        t = int(threshold)
        if not 0 <= t <= 255:
            raise ValueError(f"fixed threshold {t} outside [0, 255]")
    return img >= t


def check_mask(mask: np.ndarray) -> np.ndarray:
    """``mask`` as a ``bool`` array if it is 2-D, else ``ValueError``."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got shape {m.shape}")
    return m


class Spans(NamedTuple):
    """Foreground rows ``ys``, top to bottom, with each row's ``first`` and
    ``last`` foreground column and its pixel ``count`` (all ``intp``)."""

    ys: np.ndarray
    first: np.ndarray
    last: np.ndarray
    count: np.ndarray


def _foreground_box(m: np.ndarray) -> tuple[np.ndarray, tuple[slice, slice]]:
    """The non-empty rows of ``m`` and its foreground's bounding box."""
    rows = np.flatnonzero(m.any(axis=1))
    if len(rows) == 0:
        raise ValueError("no object: mask has no foreground pixels")
    top, bottom = rows[0], rows[-1] + 1
    cols = np.flatnonzero(m[top:bottom].any(axis=0))
    return rows, (slice(top, bottom), slice(cols[0], cols[-1] + 1))


def _row_ends(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last ``True`` column of each row of a 2-D ``bool`` array;
    an empty row reads as the first and the last column."""
    return rows.argmax(axis=1), rows.shape[1] - 1 - rows[:, ::-1].argmax(axis=1)


def row_spans(mask: np.ndarray) -> Spans:
    """``Spans`` of every non-empty row of a mask, whatever its components."""
    m = check_mask(mask)
    ys, (_, cols) = _foreground_box(m)
    rows = m[ys, cols]
    first, last = _row_ends(rows)
    # An intp total keeps no int copy of the rows.
    count = np.add.reduce(rows, axis=1, dtype=np.intp)
    return Spans(ys, cols.start + first, cols.start + last, count)


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
    _, box = _foreground_box(m)
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


def _run_ends(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``_row_ends`` of a 2-D ``bool`` array if each of its rows is one run,
    else ``None``.  A row's count is at most the width of its span, so the
    totals are equal only if every row's are (an empty row reads as a span
    of the whole width)."""
    first, last = _row_ends(rows)
    if np.count_nonzero(rows) != np.sum(last - first + 1):
        return None
    return first, last


def object_spans(mask: np.ndarray) -> Spans:
    """``Spans`` of the largest 4-connected foreground component, the
    object ``isolate_object`` keeps.

    The foreground is proved to be one component, without labelling it,
    when its bounding box has no empty row, every row is one run, and each
    run overlaps the columns of the next.  An empty row rejects the proof
    before the rows are read.  Otherwise the box is labelled by its row
    runs (``_largest_runs``) and the kept runs are reduced to one span per
    row; no label raster or kept mask is made.
    """
    m = check_mask(mask)
    rows, box = _foreground_box(m)
    top, left = box[0].start, box[1].start
    # The empty-row test only rejects early: the one-run test below fails
    # on an empty row too.
    if len(rows) == box[0].stop - top:
        ends = _run_ends(m[box])
        if ends:
            first, last = ends
            if (np.maximum(first[1:], first[:-1]) <= np.minimum(last[1:], last[:-1])).all():
                return Spans(rows, left + first, left + last, last - first + 1)
    ys, first, last = _largest_runs(m[box])
    # The runs are in row-major order: a row's first run holds its first
    # column and its last run its last.
    heads = np.flatnonzero(np.diff(ys, prepend=-1))
    tails = np.append(heads[1:], len(ys)) - 1
    return Spans(
        (top + ys[heads]).astype(np.intp),
        (left + first[heads]).astype(np.intp),
        (left + last[tails]).astype(np.intp),
        np.add.reduceat(last - first + 1, heads, dtype=np.intp),
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
