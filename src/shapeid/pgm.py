"""Reader and writer for the PGM image format (P2 ASCII and P5 binary).

Images are plain numpy ``uint8`` arrays of shape ``(height, width)``.
Both encodings round-trip bit-exactly: ``load_pgm(write_pgm(img, b)) == img``
for either value of ``b``.  The parser accepts ``#`` comments and arbitrary
whitespace between header tokens; parse errors report the byte offset of
the offending input.

P2 pixel data is written in bulk: one lookup of a 256-word table gives
each pixel a 4-byte word, its digits padded with NUL bytes to three and
then a space (a newline at the end of a row), and one ``bytes.translate``
drops the NUL bytes.  It is read by digit arithmetic in numpy, in blocks
of ``_P2_BLOCK`` bytes.  Neither makes a Python object per pixel.  Pixel
data the bulk reader cannot take as it is (comments or any byte but
digits and whitespace before the last pixel, such a byte right after a
digit, too few values, and up to the last pixel, digit runs of four or
more or values above 255) goes to a token loop, which gives
the same result and the same errors.  Tokens of up to three digits,
leading zeros included, take the bulk path.  Like the token loop, the
bulk reader reads nothing after the last pixel but the byte that ends it,
so whatever follows that byte takes the bulk path too.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PgmParseError", "check_image", "load_pgm", "write_pgm"]

#: Every image side must be shorter than this many pixels, so every
#: object spans less; ``geometry``'s corner search is exact only then
#: (see ``geometry._support_rows``).  ``load_pgm`` refuses a header that
#: names such a side before it reads any pixel, ``extract_corners`` points
#: that span this much or more, and the CLI's ``--size`` such a side.
SIDE_LIMIT = 1 << 20

_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")
_COMMENT = 0x23  # '#'
#: Bytes of P2 pixel data the bulk reader takes per numpy pass, which
#: bounds its working memory apart from the image it returns.
_P2_BLOCK = 1 << 14
#: ``_P2_WORDS[v]`` is the P2 text of ``v`` as one 4-byte word: its
#: digits padded with NUL bytes to three, then a space.
_P2_WORDS = np.frombuffer(
    b"".join(str(v).encode("ascii").ljust(3, b"\0") + b" " for v in range(256)), dtype=np.uint32
)


class PgmParseError(ValueError):
    """Malformed PGM data; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _skip_separators(data: bytes, pos: int) -> int:
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


def _next_token(data: bytes, pos: int, what: str) -> tuple[bytes, int, int]:
    """Return (token, token_start, position_after_token)."""
    pos = _skip_separators(data, pos)
    if pos >= len(data):
        raise PgmParseError(f"unexpected end of data while reading {what}", pos)
    start = pos
    n = len(data)
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != _COMMENT:
        pos += 1
    return data[start:pos], start, pos


def _next_int(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    token, start, pos = _next_token(data, pos, what)
    if not token.isdigit():
        raise PgmParseError(f"non-numeric {what} token {token!r}", start)
    return int(token), start, pos


def _p2_tokens(data: bytes, pos: int, count: int) -> np.ndarray:
    """Read ``count`` P2 pixel tokens from ``data[pos:]`` one at a time.

    This is the reference parser and the only one that raises pixel-data
    errors.  It allows comments between pixels, leading zeros and anything
    after the last pixel.
    """
    values = []
    for _ in range(count):
        try:
            value, start, pos = _next_int(data, pos, "pixel")
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


def _p2_block_values(block: np.ndarray, need: int) -> tuple[np.ndarray | None, int]:
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


def _p2_bulk(data: bytes, pos: int, count: int) -> np.ndarray | None:
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
        found, end = _p2_block_values(raw[start:stop], count - filled)
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


def load_pgm(data: bytes) -> np.ndarray:
    """Parse PGM bytes into a ``(height, width)`` uint8 array.

    Accepts magic ``P2`` (ASCII) or ``P5`` (binary) with both sides below
    ``SIDE_LIMIT`` and maxval in ``[1, 255]``.  Pixel values are taken as
    stored, without rescaling to the declared maxval.
    """
    magic, start, pos = _next_token(data, 0, "magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(
            f"malformed magic number {magic!r}, expected b'P2' or b'P5'", start
        )
    sides = []
    for what in ("width", "height"):
        side, start, pos = _next_int(data, pos, what)
        if side < 1:
            raise PgmParseError(f"{what} must be >= 1, got {side}", start)
        if side >= SIDE_LIMIT:
            raise PgmParseError(f"{what} must be below {SIDE_LIMIT}, got {side}", start)
        sides.append(side)
    width, height = sides
    maxval, start, pos = _next_int(data, pos, "maxval")
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
        flat = _p2_bulk(data, pos, count)
        if flat is None:
            flat = _p2_tokens(data, pos, count)
    return flat.reshape(height, width)


def check_image(image: np.ndarray) -> np.ndarray:
    """Return ``image`` as an array if it is a non-empty 2-D array of
    integer intensities in 0..255 with both sides below ``SIDE_LIMIT``,
    else raise ``ValueError``.  A ``uint8`` array is in range by its
    dtype, so only other dtypes are scanned."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a non-empty 2-D image, got shape {arr.shape}")
    if max(arr.shape) >= SIDE_LIMIT:
        raise ValueError(f"image sides must be below {SIDE_LIMIT} px, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"expected integer intensities, got dtype {arr.dtype}")
    if arr.dtype != np.uint8 and (arr.min() < 0 or arr.max() > 255):
        raise ValueError("intensities must lie in [0, 255]")
    return arr


def write_pgm(image: np.ndarray, binary: bool = True) -> bytes:
    """Encode a ``(height, width)`` array of 0..255 intensities as PGM bytes."""
    arr = check_image(image)
    height, width = arr.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n255\n".encode("ascii")
    if binary:
        return header + arr.astype(np.uint8).tobytes()
    # Each pixel is its word, in row order, whose space is a newline at the
    # end of a row; the NUL padding is then dropped.  Each step frees the
    # one before, so at most two 4-byte-per-pixel buffers are held at once.
    words = _P2_WORDS[arr].ravel()
    words.view(np.uint8)[4 * width - 1 :: 4 * width] = 0x0A
    text = words.tobytes()
    del words
    text = text.translate(None, b"\0")
    return header + text
