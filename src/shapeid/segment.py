"""Binary segmentation of one bright object on a dark background.

All connectivity is 4-connected, for components and boundaries alike, so
diagonal speckle never bridges into the object.

Both counting steps avoid a per-pixel ``int64`` copy.  The Otsu histogram
of a two-level image (every pixel at its minimum or its maximum, as in a
clean render) is counted by comparing the pixels with those two levels,
block by block.  An image with a third level is counted two pixels at a
time, as ``uint16`` pairs, into one ``int32`` table of 65,536 bins, whose
row and column sums fold into the 256-bin histogram.  Component sizes are
counted into an ``int64`` table from the foreground's labels only, not
from the background zeros around them.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .pgm import check_image

__all__ = ["area", "binarize", "boundary", "check_mask", "isolate_object", "otsu_threshold"]

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

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


def isolate_object(mask: np.ndarray) -> np.ndarray:
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
