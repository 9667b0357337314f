"""The block-wise P2 bulk parser on crafted block boundaries and on
full-size files.

``_p2_bulk`` cuts the pixel data into blocks of ``_P2_BLOCK`` bytes and
extends each cut to the end of the digit run it lands in.  Real blocks are
32 KiB, so the crafted bodies below are cut into blocks of a few bytes,
which puts each case on a cut; full-size files are also read in the 16
KiB blocks the reader took before.  Every case is compared with the token
loop ``_p2_tokens``, the reference parser, and with ``load_pgm``.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from shapeid import PgmParseError, corpus, load_pgm, render, write_pgm
from shapeid import pgm as pgm_module
from shapeid.pgm import _p2_bulk, _p2_tokens

_BLOCKS = [1, 2, 3, 5, 8]
_HEADER = b"P2\n3 1\n255"


def _outcome(parse, *args):
    try:
        return ("array", parse(*args).ravel().tolist())
    except PgmParseError as err:
        return ("error", str(err), err.offset)


def _bulk_outcome(body: bytes, block: int):
    """What ``_p2_bulk`` makes of ``body`` in blocks of ``block`` bytes, once
    checked against the token loop and ``load_pgm``."""
    data = _HEADER + body
    reference = _outcome(_p2_tokens, data, len(_HEADER), 3, 255)
    with mock.patch.object(pgm_module, "_P2_BLOCK", block):
        bulk = _p2_bulk(data, len(_HEADER), 3, 255)
        assert _outcome(load_pgm, data) == reference
    if bulk is not None:
        assert reference == ("array", bulk.tolist())
    return bulk, reference


# Each body is built for a block size ``b``, so that the first cut falls at
# byte ``b`` of the body.  A body starts with a separator, as pixel data
# does after the maxval token.
_BULK_CASES = {
    "token after its first digit": lambda b: b" " * max(b - 1, 1) + b"123 4 5\n",
    "token after its second digit": lambda b: b" " * max(b - 2, 1) + b"123 4 5\n",
    "token ending on the cut": lambda b: b" " * max(b - 3, 1) + b"255\t4 5\n",
    "blocks of separators only": lambda b: b" \n" * (2 * b) + b"1 2 3\n",
    "separator blocks between tokens": lambda b: b"\n1" + b" " * (3 * b) + b"2\r\n3",
    "trailing whitespace": lambda b: b" 1 2 3" + b" \n\t\x0b\x0c\r" * b,
    "leading zeros": lambda b: b" " * max(b - 1, 1) + b"007 08 000",
    # The token loop reads nothing past the last pixel.
    "a comment after the last pixel": lambda b: b" 1 2 3" + b" " * b + b"# end\n",
    "a comment right after the last pixel": lambda b: b" " * max(b - 1, 1) + b"1 2 3#x 9\n",
    "a byte starting a token after the last pixel": lambda b: b" 1 2 3" + b"\n" * b + b"x\n",
    "an extra token in a later block": lambda b: b" 1 2 3" + b" " * (2 * b) + b"4\n",
    "extra tokens right after the last pixel": lambda b: b" " * max(b - 1, 1) + b"1 2 3 4 5\n",
    # Checks that hold up to the last pixel do not look past it, whether
    # what follows it is in its block or in a later one.
    "four digits after the last pixel": lambda b: b" " * max(b - 1, 1) + b"1 2 3 1000\n",
    "four digits after the last pixel's block": lambda b: b" 1 2 3" + b" " * (2 * b) + b"1000\n",
    "above 255 after the last pixel": lambda b: b" " * max(b - 1, 1) + b"1 2 3 300\n",
    "above 255 after the last pixel's block": lambda b: b" 1 2 3" + b" " * (2 * b) + b"300\n",
    "a non-digit after the last pixel": lambda b: b" " * max(b - 1, 1) + b"1 2 3 x\n",
    "a non-digit after the last pixel's block": lambda b: b" 1 2 3" + b" " * (2 * b) + b"x\n",
}


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("case", sorted(_BULK_CASES))
def test_bulk_reads_tokens_across_block_cuts(case, block):
    bulk, reference = _bulk_outcome(_BULK_CASES[case](block), block)
    assert bulk is not None
    assert reference[0] == "array"


_TOKEN_LOOP_CASES = {
    # One token short, so that only the four-digit check can reject it.
    "four digits from the cut": lambda b: b" " * b + b"0001 4\n",
    "five digits over the cut": lambda b: b" " * max(b - 1, 1) + b"10000 4 5\n",
    "four digits over the cut": lambda b: b" " * max(b - 1, 1) + b"0001 4 5\n",
    "four digits before the cut": lambda b: b" " * max(b - 4, 1) + b"0001 4 5\n",
    "too few tokens": lambda b: b" 1" + b" " * (2 * b) + b"2\n",
    "a value above 255 in a later block": lambda b: b" 1 2" + b" " * (2 * b) + b"256\n",
    "a comment in a later block": lambda b: b" 1 2" + b" " * (2 * b) + b"#x\n3\n",
    "a byte right after the last pixel": lambda b: b" 1 2" + b" " * (2 * b) + b"3x\n",
    "a comment before the last pixel": lambda b: b" 1 2 #\n3" + b" " * b + b"#\n",
    "whitespace only": lambda b: b" \n" * (2 * b + 1),
    "empty": lambda b: b"",
}


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("case", sorted(_TOKEN_LOOP_CASES))
def test_bulk_leaves_token_loop_cases_across_block_cuts(case, block):
    bulk, _ = _bulk_outcome(_TOKEN_LOOP_CASES[case](block), block)
    assert bulk is None


# Each byte value put between two pixels, and after the last pixel (then
# a digit, which a byte that is not a separator would join to that pixel).
_BYTE_PLACES = {
    "between two pixels": (lambda byte: b" 1" + byte + b"2 3\n", pgm_module._WHITESPACE),
    "after the last pixel": (lambda byte: b" 1 2 3" + byte + b"9\n", pgm_module._WHITESPACE + b"#"),
}


@pytest.mark.parametrize("place", sorted(_BYTE_PLACES))
def test_bulk_takes_exactly_the_separators_of_the_token_pattern(place):
    # ``_p2_block_values`` tells separators by wrapped arithmetic on each
    # byte, and the token pattern by ``_WHITESPACE``: they must agree.
    body, separators = _BYTE_PLACES[place]
    taken = set()
    for byte in range(256):
        bulk, _ = _bulk_outcome(body(bytes([byte])), pgm_module._P2_BLOCK)
        if bulk is not None and bulk.tolist() == [1, 2, 3]:
            taken.add(byte)
    assert taken == set(separators)


def test_four_digit_run_over_a_cut_is_read_by_the_token_loop():
    with mock.patch.object(pgm_module, "_P2_BLOCK", 2):
        assert load_pgm(_HEADER + b" 0001 4 5\n").tolist() == [[1, 4, 5]]
        with pytest.raises(PgmParseError, match="pixel value 1000 exceeds 255") as err:
            load_pgm(_HEADER + b" 1000 4 5\n")
    assert err.value.offset == len(_HEADER) + 1


def _corpus_renders():
    """The eight 256x256 corpus shapes, and the five polygons rotated."""
    for _, spec in corpus():
        yield render(spec, 256, 256)
        if spec.kind.value in ("Rectangle", "Kite", "Square", "Rhombus", "Triangle"):
            for rotation in (30.0, 55.0):
                yield render(dataclasses.replace(spec, rotation=rotation), 256, 256)


#: The reader's block size and the one it had before.
_FULL_BLOCKS = [1 << 15, 1 << 14]


def test_corpus_renders_round_trip_through_p2():
    for image in _corpus_renders():
        data = write_pgm(image, binary=False)
        pos = data.index(b"255") + 3
        for block in _FULL_BLOCKS:
            with mock.patch.object(pgm_module, "_P2_BLOCK", block):
                bulk = _p2_bulk(data, pos, image.size, 255)
                assert np.array_equal(bulk, _p2_tokens(data, pos, image.size, 255))
                assert np.array_equal(load_pgm(data), image)


def _noise_p2(size: int) -> tuple[np.ndarray, bytes]:
    image = np.random.default_rng(14).integers(0, 256, (size, size), dtype=np.uint8)
    return image, write_pgm(image, binary=False)


def test_large_noise_image_round_trips_through_p2():
    image, data = _noise_p2(1024)
    for block in _FULL_BLOCKS:
        with mock.patch.object(pgm_module, "_P2_BLOCK", block):
            assert _p2_bulk(data, data.index(b"255") + 3, image.size, 255) is not None
            assert np.array_equal(load_pgm(data), image)


def test_large_p2_load_peak_memory_is_bounded():
    # A 1024x1024 P2 file of noise is 3.6 MiB; its image is 1 MiB, and the
    # blocks may add at most half that again.
    _, data = _noise_p2(1024)
    tracemalloc.start()
    try:
        load_pgm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


#: The least traced ``load_pgm`` peak of 256x256 corpus renders written as
#: P2 when the reader took 16 KiB blocks, in MiB, the 64 KiB image included.
_P2_LOAD_PEAK_256_MIB = 0.2522


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_p2_load_peak_of_corpus_renders_is_pinned(name):
    # 32 KiB blocks must cost no more memory than 16 KiB blocks did.
    data = write_pgm(render(dict(corpus())[name], 256, 256), binary=False)
    load_pgm(data)
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            load_pgm(data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert min(peaks) <= _P2_LOAD_PEAK_256_MIB * 2**20


@pytest.mark.parametrize("which", ["1024 noise", "256 render"])
def test_p2_write_peak_memory_is_bounded(which):
    # Each pixel takes a 4-byte word, and the words' bytes and the text
    # without its NUL padding take at most 4 bytes each, so two such
    # buffers are held at once at most: 8 bytes per pixel.
    image = _noise_p2(1024)[0] if which == "1024 noise" else next(_corpus_renders())
    tracemalloc.start()
    try:
        write_pgm(image, binary=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * image.size


def _p2_file(image: np.ndarray) -> tuple[bytes, int]:
    data = write_pgm(image, binary=False)
    return data, data.index(b"255") + 3


def test_comment_after_the_last_pixel_keeps_the_bulk_path():
    image = render(corpus()[0][1], 256, 256)
    data, pos = _p2_file(image)
    data += b"# end\n"
    bulk = _p2_bulk(data, pos, image.size, 255)
    assert bulk is not None
    assert np.array_equal(bulk, _p2_tokens(data, pos, image.size, 255))
    assert np.array_equal(load_pgm(data), image)


def test_extra_tokens_after_the_last_pixel_keep_the_bulk_path():
    image = render(corpus()[0][1], 256, 256)
    data, pos = _p2_file(image)
    # The token loop never reads a tail; the bulk reader's four-digit,
    # above-255 and non-digit checks must not see one either.
    for tail in (b"0\n", b"7 8 9\n" * 100, b"1000\n", b"300\n", b"\nx\n"):
        bulk = _p2_bulk(data + tail, pos, image.size, 255)
        assert bulk is not None
        assert np.array_equal(bulk, _p2_tokens(data + tail, pos, image.size, 255))
        assert np.array_equal(load_pgm(data + tail), image)


def test_byte_glued_to_the_last_pixel_is_the_token_loops_error():
    image = render(corpus()[0][1], 256, 256)
    image[-1, -1] = 8
    data, pos = _p2_file(image)
    assert data.endswith(b" 8\n")
    data = data[:-1] + b"x\n"
    assert _p2_bulk(data, pos, image.size, 255) is None
    with pytest.raises(PgmParseError, match="non-numeric pixel token b'8x'") as err:
        load_pgm(data)
    with pytest.raises(PgmParseError) as reference:
        _p2_tokens(data, pos, image.size, 255)
    assert (str(err.value), err.value.offset) == (str(reference.value), reference.value.offset)
    assert err.value.offset == len(data) - 3


def test_comment_between_pixels_takes_the_token_loop():
    image = render(corpus()[0][1], 256, 256)
    data, pos = _p2_file(image)
    middle = data.index(b"\n", pos + len(data) // 2)
    data = data[:middle] + b" # a comment\n" + data[middle:]
    assert _p2_bulk(data, pos, image.size, 255) is None
    assert np.array_equal(_p2_tokens(data, pos, image.size, 255), image.ravel())
    assert np.array_equal(load_pgm(data), image)
