import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from shapeid import PgmParseError, StageError, classify_raster, load_pgm, write_pgm
from shapeid.pgm import SIDE_LIMIT, _p2_bulk, check_image


def test_parse_ascii_minimal():
    img = load_pgm(b"P2\n2 2\n255\n0 255 255 0\n")
    assert img.tolist() == [[0, 255], [255, 0]]
    assert img.dtype == np.uint8


def test_parse_binary_single_byte():
    assert load_pgm(b"P5\n1 1\n255\n\x7f").tolist() == [[127]]


def test_ascii_and_binary_encode_same_image():
    checker = np.array([[0, 255, 0], [255, 0, 255], [0, 255, 0]], dtype=np.uint8)
    p2 = b"P2\n3 3\n255\n0 255 0\n255 0 255\n0 255 0\n"
    p5 = b"P5\n3 3\n255\n" + checker.tobytes()
    assert np.array_equal(load_pgm(p2), checker)
    assert np.array_equal(load_pgm(p5), checker)


def test_write_ascii_minimal():
    assert write_pgm(np.zeros((1, 1), dtype=np.uint8), binary=False) == b"P2\n1 1\n255\n0\n"


def test_write_binary_payload():
    out = write_pgm(np.array([[10, 20]], dtype=np.uint8), binary=True)
    assert out == b"P5\n2 1\n255\n\x0a\x14"


@pytest.mark.parametrize("binary, magic", [(True, b"P5"), (False, b"P2")])
def test_write_header_names_width_then_height(binary, magic):
    out = write_pgm(np.zeros((2, 3), dtype=np.uint8), binary=binary)
    assert out.startswith(magic + b"\n3 2\n255\n")


def test_comments_and_whitespace_ignored():
    data = b"P2 # format\n# a full comment line\n 2\t1 # dims\n255\n  1 # px\n 2\n"
    assert load_pgm(data).tolist() == [[1, 2]]


def test_maxval_below_255_values_kept_verbatim():
    assert load_pgm(b"P2\n2 1\n100\n5 100\n").tolist() == [[5, 100]]


# A pixel above the header's maxval is refused at its byte offset: by the
# bulk reader's value check, by the token loop (after a comment between
# pixels, which sends the data there), and in P5 by the payload's maximum.
_ABOVE_MAXVAL = {
    "P2 bulk": (b"P2\n2 1\n15\n200 3\n", 200, 10),
    "P2 token loop": (b"P2\n2 1\n15\n3 # x\n16\n", 16, 16),
    "P5": (b"P5\n2 1\n15\n\x03\xc8", 200, 11),
}


@pytest.mark.parametrize("case", sorted(_ABOVE_MAXVAL))
def test_pixel_above_maxval_is_refused_at_its_offset(case):
    data, value, offset = _ABOVE_MAXVAL[case]
    with pytest.raises(PgmParseError, match=f"pixel value {value} exceeds 15") as err:
        load_pgm(data)
    assert err.value.offset == offset
    # At maxval 255 the same pixels are read as they are.
    assert load_pgm(data.replace(b"\n15\n", b"\n255\n")).max() == value


def test_pixel_above_maxval_leaves_the_bulk_reader():
    data = _ABOVE_MAXVAL["P2 bulk"][0]
    assert _p2_bulk(data, 9, 2, 15) is None
    assert _p2_bulk(data, 9, 2, 200).tolist() == [200, 3]


@given(
    img=arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24))),
    binary=st.booleans(),
)
def test_round_trip_bit_exact(img, binary):
    assert np.array_equal(load_pgm(write_pgm(img, binary)), img)


def test_bad_magic_reports_offset_zero():
    with pytest.raises(PgmParseError) as err:
        load_pgm(b"P3\n1 1\n255\n0\n")
    assert err.value.offset == 0
    assert "magic" in str(err.value)


@pytest.mark.parametrize("maxval", [b"0", b"300"])
def test_maxval_out_of_range(maxval):
    with pytest.raises(PgmParseError, match="maxval"):
        load_pgm(b"P2\n1 1\n" + maxval + b"\n0\n")


def test_truncated_binary_payload():
    with pytest.raises(PgmParseError, match="promises 4"):
        load_pgm(b"P5\n2 2\n255\n\x00\x01")


def test_truncated_ascii_payload():
    with pytest.raises(PgmParseError, match="promises 4"):
        load_pgm(b"P2\n2 2\n255\n1 2 3\n")


def test_short_ascii_file_promising_a_huge_image_allocates_nothing_for_it():
    # 27 bytes promising 10**10 pixels: each pixel needs a digit, so the
    # reader must fail on the count, not make the promised array first.
    data = b"P2\n100000 100000\n255\n0 0 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(PgmParseError) as err:
            load_pgm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "pixel data holds 3 values, header promises 10000000000 (byte offset 27)"
    )
    assert peak < 1 << 20


def test_non_numeric_token_offset():
    with pytest.raises(PgmParseError) as err:
        load_pgm(b"P2\n2 1\nxx\n1 2\n")
    assert err.value.offset == 7
    assert "non-numeric" in str(err.value)


def test_ascii_pixel_above_255():
    with pytest.raises(PgmParseError, match="exceeds 255"):
        load_pgm(b"P2\n1 1\n255\n300\n")


def test_zero_width_rejected():
    with pytest.raises(PgmParseError, match="width"):
        load_pgm(b"P2\n0 1\n255\n")


def test_write_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        write_pgm(np.array([[300]], dtype=np.int32))


@pytest.mark.parametrize("shape", [(2, SIDE_LIMIT), (SIDE_LIMIT, 2)])
def test_an_image_side_at_the_limit_is_refused(shape):
    image = np.zeros(shape, dtype=np.uint8)
    message = f"image sides must be below {SIDE_LIMIT} px, got shape {shape}"
    with pytest.raises(ValueError) as info:
        check_image(image)
    assert str(info.value) == message
    with pytest.raises(StageError) as info:
        classify_raster(image)
    assert info.value.stage == "input"
    assert str(info.value) == f"input: {message}"


@pytest.mark.parametrize("shape", [(2, SIDE_LIMIT - 1), (SIDE_LIMIT - 1, 2)])
def test_an_image_side_below_the_limit_is_accepted(shape):
    image = np.zeros(shape, dtype=np.uint8)
    assert check_image(image) is image


def _header_only(magic: bytes, side: str, value: int) -> bytes:
    """A PGM header whose ``side`` is ``value`` and whose other side is 1,
    with no pixel data."""
    dims = b"%d 1" % value if side == "width" else b"1 %d" % value
    return magic + b"\n" + dims + b"\n255\n"


@pytest.mark.parametrize("magic", [b"P2", b"P5"])
@pytest.mark.parametrize("side", ["width", "height"])
def test_a_header_side_at_the_limit_is_refused_before_the_pixels(magic, side):
    # With no pixel data, a side one less reaches the payload-count error
    # (the next test), so this error comes before any pixel is read.
    data = _header_only(magic, side, SIDE_LIMIT)
    with pytest.raises(PgmParseError) as err:
        load_pgm(data)
    offset = data.index(b"%d" % SIDE_LIMIT)
    assert str(err.value) == f"{side} must be below {SIDE_LIMIT}, got {SIDE_LIMIT} (byte offset {offset})"


@pytest.mark.parametrize("magic", [b"P2", b"P5"])
@pytest.mark.parametrize("side", ["width", "height"])
def test_a_header_side_of_zero_is_refused_at_its_offset(magic, side):
    data = _header_only(magic, side, 0)
    with pytest.raises(PgmParseError) as err:
        load_pgm(data)
    assert str(err.value) == f"{side} must be >= 1, got 0 (byte offset {data.index(b'0')})"


@pytest.mark.parametrize(
    "magic, message",
    [(b"P2", "pixel data holds 0 values"), (b"P5", "pixel payload holds 0 bytes")],
)
@pytest.mark.parametrize("side", ["width", "height"])
def test_a_header_side_below_the_limit_reaches_the_pixels(magic, message, side):
    with pytest.raises(PgmParseError, match=f"^{message}, header promises {SIDE_LIMIT - 1} "):
        load_pgm(_header_only(magic, side, SIDE_LIMIT - 1))


def test_whitespace_only_pixel_data_holds_no_values():
    with pytest.raises(PgmParseError, match="pixel data holds 0 values, header promises 1"):
        load_pgm(b"P2\n1 1\n255\n  \n")


def test_ascii_leading_zeros_are_decimal():
    assert load_pgm(b"P2\n2 1\n255\n0255 007\n").tolist() == [[255, 7]]


def test_ascii_four_digit_pixel_reported_at_its_offset():
    data = b"P2\n3 1\n255\n7 1000 8\n"
    with pytest.raises(PgmParseError, match="pixel value 1000 exceeds 255") as err:
        load_pgm(data)
    assert err.value.offset == data.index(b"1000")


def test_ascii_pixel_that_wraps_in_uint16_exceeds_255():
    with pytest.raises(PgmParseError, match="pixel value 65537 exceeds 255"):
        load_pgm(b"P2\n1 1\n255\n65537\n")


@pytest.mark.parametrize("tail", [b" 9 9 9\n", b" junk\n", b"\n# end\n", b" -1 \xff\x00"])
def test_ascii_data_after_last_pixel_ignored(tail):
    assert load_pgm(b"P2\n2 1\n255\n1 2" + tail).tolist() == [[1, 2]]


@pytest.mark.parametrize("sep", [b"\r\n", b"\t", b"\x0b", b"\x0c"])
def test_ascii_separator_bytes(sep):
    data = sep.join([b"P2", b"2 2", b"255", b"1", b"2", b"3", b"4"]) + sep
    assert load_pgm(data).tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize("binary", [False, True])
def test_loaded_image_is_writable_and_apart_from_the_bytes(binary):
    data = write_pgm(np.arange(12, dtype=np.uint8).reshape(3, 4), binary=binary)
    image = load_pgm(data)
    assert image.flags.writeable
    assert not np.shares_memory(image, np.frombuffer(data, dtype=np.uint8))
    image[0, 0] = 99
    assert load_pgm(data)[0, 0] == 0


# ``int()`` converts digit strings of at most this many digits, leading
# zeros included; the reader counts only the digits after the zeros.
_INT_DIGITS = sys.get_int_max_str_digits()
_TOKEN_FILES = {
    "width": lambda magic, token: magic + b" " + token + b" 1 255\n0",
    "height": lambda magic, token: magic + b" 1 " + token + b" 255\n0",
    "maxval": lambda magic, token: magic + b" 1 1 " + token + b"\n0",
    "pixel": lambda magic, token: magic + b" 1 1 255\n" + token + b"\n",
}
_REFUSALS = {
    "width": f"width must be below {SIDE_LIMIT}, got {{}}",
    "height": f"height must be below {SIDE_LIMIT}, got {{}}",
    "maxval": "maxval {} outside [1, 255]",
    "pixel": "pixel value {} exceeds 255",
}
# Every token kind in P2, and the header's in P5, whose pixels are bytes.
_TOKEN_CASES = [(b"P2", what) for what in _TOKEN_FILES] + [
    (b"P5", what) for what in _TOKEN_FILES if what != "pixel"
]


@pytest.mark.parametrize("magic, what", _TOKEN_CASES)
def test_a_token_too_long_for_int_is_refused_by_its_digit_count(magic, what):
    digits = _INT_DIGITS + 1
    data = _TOKEN_FILES[what](magic, b"0" * 3 + b"9" * digits)
    with pytest.raises(PgmParseError) as err:
        load_pgm(data)
    offset = data.index(b"0009")
    assert str(err.value) == _REFUSALS[what].format(f"<{digits} digits>") + f" (byte offset {offset})"


@pytest.mark.parametrize("magic, what", _TOKEN_CASES)
def test_a_token_as_long_as_int_reads_is_refused_by_its_value(magic, what):
    token = b"9" * _INT_DIGITS
    data = _TOKEN_FILES[what](magic, token)
    with pytest.raises(PgmParseError) as err:
        load_pgm(data)
    expected = _REFUSALS[what].format(token.decode()) + f" (byte offset {data.index(token)})"
    assert str(err.value) == expected


@pytest.mark.parametrize("magic, what", _TOKEN_CASES)
def test_leading_zeros_of_any_length_are_dropped(magic, what):
    # More zeros than ``int()`` converts, then the digit the token means.
    value = b"255" if what == "maxval" else b"1"
    data = _TOKEN_FILES[what](magic, b"0" * (_INT_DIGITS + 5) + value)
    # The other tokens read 1 1 255; the pixel is ``0``, in P5 the byte 48.
    pixel = 1 if what == "pixel" else 48 if magic == b"P5" else 0
    assert load_pgm(data).tolist() == [[pixel]]
