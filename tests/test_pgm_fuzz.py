"""Property tests of the PGM reader and writer on mutated and random input.

The P2 bulk parser must agree with the token loop it stands in for, its
block kernel with the kernel it replaced, ``load_pgm`` with the
byte-loop token reader that its token pattern replaced (but for the
pixels above maxval that it now refuses), and ``write_pgm`` with the
join expression it replaced.
"""

import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from shapeid import PgmParseError, load_pgm, write_pgm
from shapeid import pgm as pgm_module
from shapeid.pgm import SIDE_LIMIT, _p2_block_values, _p2_bulk, _p2_tokens

from helpers import old_load_pgm, old_next_int, old_next_token, old_p2_block_values

# Bytes that matter to the parsers: digits, the six separators, the comment
# sign, signs and number syntax numpy might accept, and bytes that end C
# strings or are not ASCII.
_NOISE = st.sampled_from(list(b"0123456789 \t\n\r\x0b\x0c#-+.ex\x00\xff"))
_SEPARATORS = st.sampled_from([b" ", b"\n", b"\r\n", b"\t", b"\x0b", b"\x0c", b"  "])
# Pixel tokens, mostly in range; the rest are any digit run or a value that
# wraps to 0..255 in uint16 or uint64.
_TOKENS = st.sampled_from(["byte"] * 6 + ["digits", "wrap"]).flatmap(
    lambda kind: {
        "byte": st.integers(0, 255).map(lambda v: b"%d" % v),
        "digits": st.from_regex(rb"\A[0-9]{1,5}\Z"),
        "wrap": st.builds(
            lambda v, k: b"%d" % (v + k),
            st.integers(0, 255),
            st.sampled_from([2**16, 2**17, 2**32, 2**64]),
        ),
    }[kind]
)
_SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6))


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """``data`` after a few byte replacements, insertions and deletions,
    then possibly cut short."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(buf)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert" or at == len(buf):
            buf.insert(at, draw(_NOISE))
        elif op == "replace":
            buf[at] = draw(_NOISE)
        else:
            del buf[at]
    if draw(st.booleans()):
        del buf[draw(st.integers(0, len(buf))):]
    return bytes(buf)


@st.composite
def _pgm_files(draw) -> bytes:
    """A well-formed P2 or P5 file, one mutated, or two spliced."""

    def well_formed():
        image = draw(arrays(np.uint8, _SHAPES))
        return write_pgm(image, binary=draw(st.booleans()))

    data = well_formed()
    kind = draw(st.sampled_from(["intact", "mutated", "spliced"]))
    if kind == "mutated":
        data = draw(_mutated(data))
    elif kind == "spliced":
        other = well_formed()
        data = data[: draw(st.integers(0, len(data)))] + other[draw(st.integers(0, len(other))):]
    return data


@st.composite
def _p2_bodies(draw, count: int) -> bytes:
    """A separator, then pixel tokens near ``count`` in number, separated
    by any whitespace and often mutated."""
    n = draw(st.sampled_from([count] * 4 + [count - 1, count + 1]))
    body = b""
    for _ in range(n):
        body += draw(_TOKENS) + draw(_SEPARATORS)
    if draw(st.booleans()):
        body = draw(_mutated(body))
    return draw(_SEPARATORS) + body


def _outcome(parse, *args):
    try:
        return ("array", parse(*args).tolist())
    except PgmParseError as err:
        return ("error", str(err), err.offset)


@settings(max_examples=300)
@given(data=_pgm_files())
def test_load_returns_image_or_parse_error(data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            image = load_pgm(data)
        except PgmParseError:
            return
    assert isinstance(image, np.ndarray)
    assert image.dtype == np.uint8
    assert image.ndim == 2


def _check_bulk_against_tokens(shape, data):
    height, width = shape
    count = height * width
    header = b"P2\n%d %d\n255" % (width, height)
    pgm = header + data.draw(_p2_bodies(count))
    reference = _outcome(lambda: _p2_tokens(pgm, len(header), count, 255).reshape(height, width))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bulk = _p2_bulk(pgm, len(header), count, 255)
        assert _outcome(load_pgm, pgm) == reference
    if bulk is not None:
        assert reference == ("array", bulk.reshape(height, width).tolist())


@settings(max_examples=300)
@given(shape=_SHAPES, data=st.data())
def test_bulk_p2_matches_token_loop(shape, data):
    _check_bulk_against_tokens(shape, data)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8])
@settings(max_examples=100)
@given(shape=_SHAPES, data=st.data())
def test_bulk_p2_matches_token_loop_in_small_blocks(block, shape, data):
    # The bodies drawn above are far shorter than a real block, so cut them
    # into blocks of a few bytes to put tokens and digit runs on the cuts.
    with mock.patch.object(pgm_module, "_P2_BLOCK", block):
        _check_bulk_against_tokens(shape, data)


# Block bytes: mostly digits and the six separators, now and then a byte
# that is neither, as a comment sign, a NUL or a byte next to the digits.
_BLOCK_BYTES = st.sampled_from(list(b"0123456789" * 3 + b" \t\n\r\x0b\x0c" * 2 + b"#x\x00\xff/:"))


@settings(max_examples=1000)
@given(
    body=st.lists(_BLOCK_BYTES, min_size=1, max_size=96).map(bytes),
    need=st.integers(1, 40),
    maxval=st.sampled_from([255, 255, 254, 200, 99, 10, 9, 1]),
)
def test_block_kernel_reads_as_the_old_kernel(body, need, maxval):
    # The old kernel refused values above 255 only; a lower maxval also
    # refuses a block whose values the old kernel read, if one exceeds it.
    block = np.frombuffer(body, dtype=np.uint8)
    values, end = old_p2_block_values(block, need)
    out = np.full(need, 0xAA, dtype=np.uint8)
    read = _p2_block_values(block, need, maxval, out)
    if values is None or (len(values) and values.max() > maxval):
        assert read is None
    else:
        assert read == (len(values), end)
        assert out[: len(values)].tolist() == values.tolist()
        assert (out[len(values) :] == 0xAA).all()


def _join_p2(arr: np.ndarray) -> bytes:
    """The per-pixel P2 writer that ``write_pgm`` replaced."""
    height, width = arr.shape
    header = f"P2\n{width} {height}\n255\n".encode("ascii")
    body = "\n".join(" ".join(str(int(v)) for v in row) for row in arr)
    return header + body.encode("ascii") + b"\n"


_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64, np.int8, np.int16, np.int32, np.int64]


def _draw_image(data, dtype, shapes=_SHAPES) -> np.ndarray:
    high = min(255, int(np.iinfo(dtype).max))
    return data.draw(arrays(dtype, shapes, elements=st.integers(0, high)))


@pytest.mark.parametrize("dtype", _DTYPES)
@given(data=st.data())
def test_write_p2_matches_join(dtype, data):
    arr = _draw_image(data, dtype)
    assert write_pgm(arr, binary=False) == _join_p2(arr)


_VIEWS = {
    "rows reversed": lambda a: a[::-1],
    "columns reversed": lambda a: a[:, ::-1],
    "transposed": lambda a: a.T,
    "every other column": lambda a: a[:, ::2],
}
# One row or one column, or up to 12 on a side so that every other column
# of a view is itself a view of several columns.
_VIEW_SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.just(1)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
)


@pytest.mark.parametrize("view", sorted(_VIEWS))
@pytest.mark.parametrize("dtype", _DTYPES)
@given(data=st.data())
def test_write_p2_of_a_view_matches_join(dtype, view, data):
    arr = _VIEWS[view](_draw_image(data, dtype, _VIEW_SHAPES))
    assert write_pgm(arr, binary=False) == _join_p2(arr)


# Separators: runs of any of the six whitespace bytes, and comments, whose
# text may hold any byte but a newline.
_WHITE = st.binary(min_size=1, max_size=3).map(
    lambda raw: bytes(b" \t\n\r\x0b\x0c"[v % 6] for v in raw)
)
_COMMENT_TEXT = st.binary(max_size=4).map(lambda raw: b"#" + raw.replace(b"\n", b""))
_GAP = st.lists(
    st.one_of(_WHITE, _COMMENT_TEXT.map(lambda text: text + b"\n")), min_size=1, max_size=3
).map(b"".join)


@st.composite
def _numbers(draw, high: int) -> bytes:
    """A number token, mostly at most ``high``, often with leading zeros;
    now and then one of the longest that ``int()`` reads, or longer."""
    kind = draw(st.sampled_from(["plain"] * 19 + ["long"]))
    if kind == "long":
        limit = sys.get_int_max_str_digits()
        return draw(st.sampled_from([b"9" * limit, b"0" * limit + b"7", b"9" * (limit + 1)]))
    zeros = draw(st.sampled_from([0, 0, 0, 1, 2, 5]))
    return b"0" * zeros + b"%d" % draw(st.integers(0, high + 2))


@st.composite
def _token_files(draw) -> bytes:
    """A P2 or P5 file built token by token, with every separator above,
    leading zeros, anything after the last pixel, an unterminated comment
    at the end now and then, and often cut short."""
    magic = draw(st.sampled_from([b"P2", b"P5"]))
    width, height = draw(_SHAPES)
    # The header names the shape whose pixels follow, or drawn sides.
    sides = [b"%d" % width, b"%d" % height]
    if draw(st.booleans()):
        sides = [draw(_numbers(8)), draw(_numbers(8))]
    data = draw(st.sampled_from([b"", b" "])) + magic
    for token in [*sides, draw(_numbers(255))]:
        data += draw(_GAP) + token
    count = width * height + draw(st.sampled_from([0, 0, 0, -1, 1]))
    if magic == b"P5":
        data += draw(st.one_of(_WHITE.map(lambda white: white[:1]), _GAP))
        data += draw(st.binary(min_size=count, max_size=count))
    else:
        for _ in range(count):
            data += draw(_GAP) + draw(_numbers(255))
    data += draw(st.sampled_from([b"", b"\n", b" 9 x\n"]))
    if draw(st.booleans()):
        data += draw(_COMMENT_TEXT)
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


def _reading(load, data: bytes):
    """What ``load`` makes of ``data``: an array, a parse error with its
    offset, or, for the old reader on a token too long for ``int()``, a
    plain ``ValueError``."""
    try:
        return ("array", load(data).tolist())
    except PgmParseError as err:
        return ("error", str(err), err.offset)
    except ValueError:
        return ("crash",)


def _refused_above_maxval(data: bytes, old):
    """``old``, the old reader's reading of ``data``, or the error the
    reader now gives at the first pixel above the header's maxval that the
    old reader read before any token it refused."""
    try:
        magic, _, pos = old_next_token(data, 0, "magic number")
        width, _, pos = old_next_int(data, pos, "width")
        height, _, pos = old_next_int(data, pos, "height")
        maxval, _, pos = old_next_int(data, pos, "maxval")
    except ValueError:
        # A parse error, or a token too long for ``int()`` after a header
        # error the old reader raised first.
        return old
    if magic not in (b"P2", b"P5") or not 1 <= maxval < 255:
        return old
    if not (1 <= width < SIDE_LIMIT and 1 <= height < SIDE_LIMIT):
        return old
    if magic == b"P5":
        if old[0] != "array" or max(map(max, old[1])) <= maxval:
            return old
        flat = [v for row in old[1] for v in row]
        at = next(i for i, v in enumerate(flat) if v > maxval)
        value, start = flat[at], pos + 1 + at
    else:
        for _ in range(width * height):
            try:
                value, start, pos = old_next_int(data, pos, "pixel")
            except PgmParseError:
                return old
            if value > maxval:
                break
        else:
            return old
    return ("error", f"pixel value {value} exceeds {maxval} (byte offset {start})", start)


@settings(max_examples=500)
@given(data=_token_files())
def test_token_pattern_reads_as_the_byte_loop_did(data):
    new, old = _reading(load_pgm, data), _reading(old_load_pgm, data)
    if old == ("crash",):
        assert new[0] in ("array", "error")
    else:
        assert new == _refused_above_maxval(data, old)
