"""Reader and writer for the PGM image format (P2 ASCII and P5 binary).

Images are plain numpy ``uint8`` arrays of shape ``(height, width)``.
Both encodings round-trip bit-exactly: ``load_pgm(write_pgm(img, b)) == img``
for either value of ``b``.  The parser accepts ``#`` comments and arbitrary
whitespace between header tokens; parse errors report the byte offset of
the offending input.

P2 pixel data is read and written in bulk with numpy.  Pixel data the
bulk reader cannot take as it is (comments, digit runs of four or more,
too few or too many values, values above 255) goes to a token loop,
which gives the same result and the same errors.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PgmParseError", "check_image", "load_pgm", "write_pgm"]

_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")
_COMMENT = 0x23  # '#'
#: Byte classes for the bulk P2 check: digits become ``0``, whitespace
#: becomes a space and every other byte ``x``.
_P2_CLASSES = bytes(
    0x30 if 0x30 <= b <= 0x39 else 0x20 if b in _WHITESPACE else 0x78
    for b in range(256)
)
#: ``_P2_DIGITS[v]`` is the decimal text of ``v`` padded with NUL bytes
#: to three, for writing P2 without a Python object per pixel.
_P2_DIGITS = np.array(
    [list(str(v).encode("ascii").ljust(3, b"\0")) for v in range(256)], dtype=np.uint8
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


def _p2_bulk(data: bytes, pos: int, count: int) -> np.ndarray | None:
    """Read the P2 pixel data ``data[pos:]`` in one numpy call.

    Returns what ``_p2_tokens`` would return, or ``None`` where the bytes
    need the token loop: any byte but digits and whitespace, a digit run of
    four or more (numpy wraps such values into ``uint16``), whitespace only
    (numpy reads it as one 0), other than ``count`` values, or a value above
    255.  No Python object is made per token.
    """
    classes = data.translate(_P2_CLASSES)
    if (
        classes.find(b"x", pos) >= 0
        or classes.find(b"0000", pos) >= 0
        or classes.find(b"0", pos) < 0
    ):
        return None
    del classes  # a copy of the file: free it before numpy allocates
    values = np.fromstring(data[pos:], dtype=np.uint16, sep=" ")
    if values.size != count or values.max() > 255:
        return None
    return values.astype(np.uint8)


def load_pgm(data: bytes) -> np.ndarray:
    """Parse PGM bytes into a ``(height, width)`` uint8 array.

    Accepts magic ``P2`` (ASCII) or ``P5`` (binary) with maxval in
    ``[1, 255]``.  Pixel values are taken as stored, without rescaling
    to the declared maxval.
    """
    magic, start, pos = _next_token(data, 0, "magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(
            f"malformed magic number {magic!r}, expected b'P2' or b'P5'", start
        )
    width, start, pos = _next_int(data, pos, "width")
    if width < 1:
        raise PgmParseError(f"width must be >= 1, got {width}", start)
    height, start, pos = _next_int(data, pos, "height")
    if height < 1:
        raise PgmParseError(f"height must be >= 1, got {height}", start)
    maxval, start, pos = _next_int(data, pos, "maxval")
    if not 1 <= maxval <= 255:
        raise PgmParseError(f"maxval {maxval} outside [1, 255]", start)

    count = width * height
    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PgmParseError("expected a single whitespace byte after maxval", pos)
        pos += 1
        payload = data[pos : pos + count]
        if len(payload) < count:
            raise PgmParseError(
                f"pixel payload holds {len(payload)} bytes, header promises {count}",
                len(data),
            )
        flat = np.frombuffer(payload, dtype=np.uint8, count=count)
    else:
        flat = _p2_bulk(data, pos, count)
        if flat is None:
            flat = _p2_tokens(data, pos, count)
    return flat.reshape(height, width).copy()


def check_image(image: np.ndarray) -> np.ndarray:
    """Return ``image`` as an array if it is a non-empty 2-D array of
    integer intensities in 0..255, else raise ``ValueError``.  A ``uint8``
    array is in range by its dtype, so only other dtypes are scanned."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a non-empty 2-D image, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"expected integer intensities, got dtype {arr.dtype}")
    if arr.dtype != np.uint8 and (arr.min() < 0 or arr.max() > 255):
        raise ValueError("intensities must lie in [0, 255]")
    return arr


def write_pgm(image: np.ndarray, binary: bool = True) -> bytes:
    """Encode a ``(height, width)`` array of 0..255 intensities as PGM bytes."""
    arr = check_image(image)
    height, width = arr.shape
    if binary:
        header = f"P5\n{width} {height}\n255\n".encode("ascii")
        return header + arr.astype(np.uint8).tobytes()
    header = f"P2\n{width} {height}\n255\n".encode("ascii")
    # Each pixel is its padded digits then a space, or a newline at the end
    # of a row; the NUL padding is then dropped.
    text = np.empty((height, width, 4), dtype=np.uint8)
    text[:, :, :3] = _P2_DIGITS[arr.astype(np.uint8)]
    text[:, :, 3] = 0x20
    text[:, -1, 3] = 0x0A
    text = text.ravel()
    return header + text[text != 0].tobytes()
