"""Shared oracles, generators and the source-mutant helper for the test suite.

Everything here is deliberately independent of the library internals:
flood fill by explicit BFS, polygon area by centroid fan, point-in-region
by scalar math, so the tests cross-check rather than mirror the
implementation.  Library code that a change replaced is kept here
verbatim as ``old_*`` oracles, so the tests can check that the new code
behaves as the old did.
"""

import inspect
import itertools
import math
import sys
import types
from collections import deque

import numpy as np

from shapeid import pgm
from shapeid.pgm import PgmParseError


def add_salt(image, fraction, rng, fg=255):
    """Return a copy with ``fraction`` of background pixels set to ``fg``."""
    img = np.asarray(image).copy()
    background = np.argwhere(img != fg)
    count = int(round(fraction * len(background)))
    picks = background[rng.choice(len(background), size=count, replace=False)]
    img[picks[:, 0], picks[:, 1]] = fg
    return img


def flood_components(mask):
    """All 4-connected components via BFS, in row-major discovery order."""
    m = np.asarray(mask, dtype=bool)
    seen = np.zeros_like(m)
    h, w = m.shape
    components = []
    for y in range(h):
        for x in range(w):
            if not m[y, x] or seen[y, x]:
                continue
            queue = deque([(y, x)])
            seen[y, x] = True
            component = []
            while queue:
                cy, cx = queue.popleft()
                component.append((cy, cx))
                for ny, nx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
                    if 0 <= ny < h and 0 <= nx < w and m[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
            components.append(component)
    return components


def largest_component_mask(mask):
    """Flood-fill reference for isolate_object.

    Discovery order is row-major by first pixel, so ``max`` with ``key=len``
    realizes the earliest-first-pixel tie rule.
    """
    components = flood_components(mask)
    best = max(components, key=len)
    out = np.zeros(np.asarray(mask).shape, dtype=bool)
    for y, x in best:
        out[y, x] = True
    return out


def centroid_fan_area(points):
    """Polygon area as a fan of triangles around the vertex centroid."""
    pts = np.asarray(points, dtype=float)
    g = pts.mean(axis=0)
    total = 0.0
    for i in range(len(pts)):
        a = pts[i] - g
        b = pts[(i + 1) % len(pts)] - g
        total += abs(a[0] * b[1] - a[1] * b[0]) / 2.0
    return total


def random_convex_quad(rng, span=1000.0):
    """Rejection-sample a strictly convex quadrilateral, vertices CCW."""
    while True:
        pts = rng.uniform(0.0, span, size=(4, 2))
        g = pts.mean(axis=0)
        order = np.argsort(np.arctan2(pts[:, 1] - g[1], pts[:, 0] - g[0]))
        pts = pts[order]
        crosses = []
        for i in range(4):
            a = pts[(i + 1) % 4] - pts[i]
            b = pts[(i + 2) % 4] - pts[(i + 1) % 4]
            crosses.append(a[0] * b[1] - a[1] * b[0])
        if all(c > 1.0 for c in crosses) or all(c < -1.0 for c in crosses):
            return pts


def worst_corner_error(corners, true_vertices):
    """Max corner-to-vertex distance under the best one-to-one assignment."""
    return min(
        max(math.dist(corners[i], true_vertices[p[i]]) for i in range(len(corners)))
        for p in itertools.permutations(range(len(true_vertices)))
    )


# Moved verbatim from ``shapeid.geometry``, whose corners now leave the
# search in hull order: the oracle of the tests that check that they
# come out in the order this sort gave them.
def _counterclockwise(points: list) -> list:
    """Indices that sort ``[x, y]`` points by angle about their centroid
    (ties: radius, then index).  The centroid and the offsets are the floats
    that numpy's ``mean`` and subtraction give for a ``float64`` or integer
    array: the sums run in order from ``0.0``."""
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    cx = cy = 0.0
    for x, y in zip(xs, ys):
        cx += x
        cy += y
    cx /= len(points)
    cy /= len(points)
    rel = [(x - cx, y - cy) for x, y in zip(xs, ys)]
    return sorted(
        range(len(rel)),
        key=lambda i: (math.atan2(rel[i][1], rel[i][0]), rel[i][0] ** 2 + rel[i][1] ** 2, i),
    )


# Moved verbatim from ``shapeid.geometry``, whose own code never called
# it: the tests put hand-made corners in the library's order with it.
def order_counterclockwise(points: np.ndarray) -> np.ndarray:
    """Sort points by angle about their centroid (ties: radius, then index),
    in ``float64`` (see ``_counterclockwise``)."""
    pts = np.asarray(points)
    return pts[_counterclockwise(pts.tolist())]


def source_mutant(module, old: str, new: str) -> dict:
    """``module`` of the package with one source fragment replaced, as a
    module namespace, for mutation checks."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, old
    mutant = types.ModuleType(f"{module.__name__}_mutant")
    mutant.__package__ = module.__package__
    # dataclass() looks its class's module up in sys.modules.
    sys.modules[mutant.__name__] = mutant
    try:
        exec(compile(source.replace(old, new), module.__file__, "exec"), mutant.__dict__)
    finally:
        del sys.modules[mutant.__name__]
    return mutant.__dict__


# The PGM token reader as it stood before ``shapeid.pgm`` read tokens
# through one compiled pattern, verbatim, for the tests that check that
# the pattern reads every file as it did.  ``old_load_pgm`` is the old
# ``load_pgm`` on these readers and the old bulk reader below.
# ``int()`` refuses a token of more digits than
# ``sys.get_int_max_str_digits()``, leading zeros included, so these
# raise a plain ``ValueError`` on one.
_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")
_COMMENT = 0x23  # '#'
SIDE_LIMIT = pgm.SIDE_LIMIT


def old_skip_separators(data: bytes, pos: int) -> int:
    n = len(data)
    while pos < n:
        b = data[pos]
        if b in _WHITESPACE:
            pos += 1
        elif b == _COMMENT:
            while pos < n and data[pos] != 0x0A:
                pos += 1
        else:
            break
    return pos


def old_next_token(data: bytes, pos: int, what: str) -> tuple[bytes, int, int]:
    """Return (token, token_start, position_after_token)."""
    pos = old_skip_separators(data, pos)
    if pos >= len(data):
        raise PgmParseError(f"unexpected end of data while reading {what}", pos)
    start = pos
    n = len(data)
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != _COMMENT:
        pos += 1
    return data[start:pos], start, pos


def old_next_int(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    token, start, pos = old_next_token(data, pos, what)
    if not token.isdigit():
        raise PgmParseError(f"non-numeric {what} token {token!r}", start)
    return int(token), start, pos


def old_p2_tokens(data: bytes, pos: int, count: int) -> np.ndarray:
    """Read ``count`` P2 pixel tokens from ``data[pos:]`` one at a time.

    This is the reference parser and the only one that raises pixel-data
    errors.  It allows comments between pixels, leading zeros and anything
    after the last pixel.
    """
    values = []
    for _ in range(count):
        try:
            value, start, pos = old_next_int(data, pos, "pixel")
        except PgmParseError as err:
            if "unexpected end" in str(err):
                raise PgmParseError(
                    f"pixel data holds {len(values)} values, header promises {count}",
                    err.offset,
                ) from None
            raise
        if value > 255:
            raise PgmParseError(f"pixel value {value} exceeds 255", start)
        values.append(value)
    return np.array(values, dtype=np.uint8)


def old_load_pgm(data: bytes) -> np.ndarray:
    """Parse PGM bytes into a ``(height, width)`` uint8 array.

    Accepts magic ``P2`` (ASCII) or ``P5`` (binary) with both sides below
    ``SIDE_LIMIT`` and maxval in ``[1, 255]``.  Pixel values are taken as
    stored, without rescaling to the declared maxval.
    """
    magic, start, pos = old_next_token(data, 0, "magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(
            f"malformed magic number {magic!r}, expected b'P2' or b'P5'", start
        )
    sides = []
    for what in ("width", "height"):
        side, start, pos = old_next_int(data, pos, what)
        if side < 1:
            raise PgmParseError(f"{what} must be >= 1, got {side}", start)
        if side >= SIDE_LIMIT:
            raise PgmParseError(f"{what} must be below {SIDE_LIMIT}, got {side}", start)
        sides.append(side)
    width, height = sides
    maxval, start, pos = old_next_int(data, pos, "maxval")
    if not 1 <= maxval <= 255:
        raise PgmParseError(f"maxval {maxval} outside [1, 255]", start)

    count = width * height
    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PgmParseError("expected a single whitespace byte after maxval", pos)
        pos += 1
        if len(data) - pos < count:
            raise PgmParseError(
                f"pixel payload holds {len(data) - pos} bytes, header promises {count}",
                len(data),
            )
        # A view of ``data`` is read-only, so copy it; the P2 parsers
        # already return new arrays.
        flat = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos).copy()
    else:
        flat = old_p2_bulk(data, pos, count)
        if flat is None:
            flat = old_p2_tokens(data, pos, count)
    return flat.reshape(height, width)


# The P2 bulk reader as it stood before its block kernel wrote each value
# straight into the output image, compacted the values in two halves of a
# block and refused values above the header's maxval, verbatim, with the
# block size it had: ``old_load_pgm`` reads through it, and the tests
# check that the new kernel reads every block as the old one did.
_P2_BLOCK = 1 << 14


def old_p2_block_values(block: np.ndarray, need: int) -> tuple[np.ndarray | None, int]:
    """The values of the P2 pixel tokens in ``block[:end]``, a ``uint8``
    view that no token crosses, and ``end``: the index right after the
    ``need``-th token if the block holds that many, else the index of its
    first byte that is neither a digit nor whitespace, or its length.  The
    values are ``None`` if that prefix holds a digit run of four or more or
    a value above 255.  Each value is read at its token's last digit, from
    that digit and the two before it.
    """
    # Less '0', digits are 0..9, a space wraps to 240 and \t..\r to 217..221.
    d = np.subtract(block, 0x30, dtype=np.uint8)
    digit = d <= 9
    known = digit | (d == 240) | (np.subtract(d, 217, dtype=np.uint8) <= 4)
    end = len(block)
    if not known.all():
        end = int(known.argmin())
        d, digit = d[:end], digit[:end]
    # Freed before the arrays below, so the block's peak does not grow.
    del known
    d *= digit
    # tens[i] is the number the digits at i-1 and i make, or 0 at a
    # separator, so a token ending at i reads d[i] + 10 tens[i-1].
    tens = d.copy()
    tens[1:] += np.multiply(d[:-1], 10, dtype=np.uint8)
    tens *= digit
    value = d.astype(np.uint16)
    value[1:] += np.multiply(tens[:-1], 10, dtype=np.uint16)
    # A token ends at a digit followed by a separator; the prefix's last
    # byte is followed by one, by a byte that ends the token as a comment
    # does or makes it no number, or by the end of the data.
    ends = digit.copy()
    np.greater(digit[:-1], digit[1:], out=ends[:-1])
    found = np.compress(ends, value)
    if len(found) >= need:
        # The block holds the last value needed: check nothing after it.
        end = int(np.flatnonzero(ends)[need - 1]) + 1
        found, digit = found[:need], digit[:end]
    pairs = digit[1:] & digit[:-1]
    if (pairs[2:] & pairs[:-2]).any() or (len(found) and found.max() > 255):
        return None, end
    return found, end


def old_p2_bulk(data: bytes, pos: int, count: int) -> np.ndarray | None:
    """Read the P2 pixel data ``data[pos:]`` by digit arithmetic in numpy,
    about ``_P2_BLOCK`` bytes at a time.

    Returns what ``_p2_tokens`` would return, or ``None`` where the bytes
    need the token loop: a digit run of four or more or a value above 255
    up to the ``count``-th value, fewer than ``count`` values, any byte but
    digits and whitespace before the ``count``-th value, or a byte right
    after it that is neither whitespace nor ``#``.  Like the token loop, it
    reads nothing past that byte.  The bytes are not copied, and no Python
    object is made per token.  Each value takes at least one byte, so with
    fewer than ``count`` bytes it returns ``None`` before the output array
    is made: a short file cannot make it allocate what its header promises.
    """
    raw = np.frombuffer(data, dtype=np.uint8)[pos:]
    n = len(raw)
    if n < count:
        return None
    out = np.empty(count, dtype=np.uint8)
    filled = start = 0
    while start < n:
        # End the block after the digit run its cut lands in, so that the
        # next block starts on a separator.  Four digits past the cut make
        # a run the four-digit check rejects, or one after the last value
        # that is never read, so look no further.
        stop = min(start + _P2_BLOCK, n)
        cut = data[pos + stop : pos + stop + 4]
        stop += len(cut) - len(cut.lstrip(b"0123456789"))
        found, end = old_p2_block_values(raw[start:stop], count - filled)
        if found is None:
            return None
        out[filled : filled + len(found)] = found
        filled += len(found)
        if filled == count:
            at = start + end
            return out if at == n or raw[at] == _COMMENT or int(raw[at]) in _WHITESPACE else None
        if end < stop - start:
            return None
        start = stop
    return None


# The run labeller's union-find as it stood before its first hook took no
# gather and its pointers jumped twice to each check, verbatim, as the
# oracle of the tests that check that it joins every run list as before.
def old_largest_component(start: np.ndarray, end: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
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
