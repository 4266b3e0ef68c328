"""Property tests for the gray8 PNG decoder.

Two properties, on the decoder of :mod:`repro.io.png`:

* a valid gray8 PNG decodes to the array that was encoded, bitwise (shape,
  dtype and every value), through bytes and through a file alike;
* any other input — byte-mutated, truncated, extended, arbitrary, or a
  well-formed chunk stream with a malformed IHDR — raises
  :class:`~repro.io.png.PngError` and nothing else.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.io.png import (
    PngError,
    _SIGNATURE,
    _chunk,
    decode_png_gray8,
    encode_png_gray8,
    read_png_gray8,
)

SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

IMAGES = arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12)))


@st.composite
def mutated_pngs(draw):
    """A valid PNG with a few bytes overwritten, cut off, or inserted."""
    body = bytearray(encode_png_gray8(draw(IMAGES)))
    kind = draw(st.sampled_from(["overwrite", "truncate", "append", "insert"]))
    if kind == "overwrite":
        for _ in range(draw(st.integers(1, 4))):
            body[draw(st.integers(0, len(body) - 1))] = draw(st.integers(0, 255))
    elif kind == "truncate":
        del body[draw(st.integers(0, len(body) - 1)):]
    elif kind == "append":
        body += draw(st.binary(min_size=1, max_size=16))
    else:
        position = draw(st.integers(0, len(body)))
        body[position:position] = draw(st.binary(min_size=1, max_size=8))
    return bytes(body)


@st.composite
def chunk_streams(draw):
    """Signature plus arbitrary chunks, IHDR payloads of any length included."""
    chunks = []
    for _ in range(draw(st.integers(0, 4))):
        tag = draw(st.sampled_from([b"IHDR", b"IDAT", b"IEND", b"tEXt"]))
        chunks.append(_chunk(tag, draw(st.binary(max_size=20))))
    return _SIGNATURE + b"".join(chunks)


def _decodes_or_png_error(body):
    try:
        image = decode_png_gray8(body)
    except PngError:
        return
    assert image.dtype == np.uint8 and image.ndim == 2 and image.size > 0


@SETTINGS
@given(IMAGES)
def test_valid_png_round_trips_bitwise(image):
    decoded = decode_png_gray8(encode_png_gray8(image))
    assert decoded.dtype == np.uint8
    assert decoded.shape == image.shape
    assert decoded.tobytes() == image.tobytes()


def test_file_round_trip_goes_through_the_same_decoder(tmp_path):
    image = np.arange(35, dtype=np.uint8).reshape(5, 7)
    path = tmp_path / "labels.png"
    path.write_bytes(encode_png_gray8(image))
    np.testing.assert_array_equal(read_png_gray8(path), image)


@SETTINGS
@given(st.one_of(mutated_pngs(), chunk_streams(), st.binary(max_size=64)))
def test_other_bytes_raise_only_png_error(body):
    _decodes_or_png_error(body)


@pytest.mark.parametrize("length", [0, 5, 12, 14])
def test_ihdr_of_wrong_length_is_a_png_error(length):
    body = _SIGNATURE + _chunk(b"IHDR", b"\x00" * length) + _chunk(b"IEND", b"")
    with pytest.raises(PngError, match=f"{length}-byte IHDR"):
        decode_png_gray8(body)


@pytest.mark.parametrize("width, height", [(0, 3), (3, 0), (0, 0)])
def test_empty_dimensions_are_a_png_error(width, height):
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    body = (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(b"\x00" * max(width, height)))
        + _chunk(b"IEND", b"")
    )
    with pytest.raises(PngError, match="empty"):
        decode_png_gray8(body)
