"""Reader and writer for the PGM image format (P2 ASCII and P5 binary).

Images are plain numpy ``uint8`` arrays of shape ``(height, width)``.
Both encodings round-trip bit-exactly: ``load_pgm(write_pgm(img, b)) == img``
for either value of ``b``.  The parser accepts ``#`` comments and arbitrary
whitespace between header tokens; parse errors report the byte offset of
the offending input.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PgmParseError", "check_image", "load_pgm", "write_pgm"]

_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")
_COMMENT = 0x23  # '#'


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
        flat = np.array(values, dtype=np.uint8)
    return flat.reshape(height, width).copy()


def check_image(image: np.ndarray) -> np.ndarray:
    """Return ``image`` as an array if it is a non-empty 2-D array of
    integer intensities in 0..255, else raise ``ValueError``."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a non-empty 2-D image, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"expected integer intensities, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() > 255:
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
    body = "\n".join(" ".join(str(int(v)) for v in row) for row in arr)
    return header + body.encode("ascii") + b"\n"
