"""Property tests for the scoring server's binary request decoders.

Two properties per decoder, on ``.npy`` and ``.npz`` bodies alike:

* a valid body decodes to the array that was saved, bitwise (dtype, shape,
  memory order and every byte of the values);
* any other body — byte-mutated, truncated, extended or arbitrary — raises
  :class:`~repro.serve.protocol.RequestError` and nothing else, so the
  server answers 400 and never 500 for client input.
"""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.serve.client import npy_bytes, npz_bytes
from repro.serve.protocol import RequestError, decode_npy, parse_score_request

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

DTYPES = st.sampled_from(
    [np.dtype(name) for name in ("<f8", ">f8", "<f4", ">f4", "<i4", "u1", "?", "<c16")]
)


def _frames(dtype=DTYPES, ndim=3):
    shapes = st.tuples(*[st.integers(0, 5)] * ndim)
    return st.tuples(dtype, shapes).flatmap(
        lambda spec: arrays(spec[0], spec[1])
    )


def _orders(array_strategy):
    """The array as saved: C order or Fortran order (fortran_order=True)."""
    return st.tuples(array_strategy, st.booleans()).map(
        lambda pair: np.asfortranarray(pair[0]) if pair[1] else pair[0]
    )


def _assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def _mutations(valid_bodies):
    """A valid body with a few bytes overwritten, cut off, or appended."""

    @st.composite
    def mutated(draw):
        body = bytearray(draw(valid_bodies))
        kind = draw(st.sampled_from(["overwrite", "truncate", "append", "insert"]))
        if kind == "overwrite":
            for _ in range(draw(st.integers(1, 4))):
                position = draw(st.integers(0, len(body) - 1))
                body[position] = draw(st.integers(0, 255))
        elif kind == "truncate":
            del body[draw(st.integers(0, len(body) - 1)):]
        elif kind == "append":
            body += draw(st.binary(min_size=1, max_size=16))
        else:
            position = draw(st.integers(0, len(body)))
            body[position:position] = draw(st.binary(min_size=1, max_size=8))
        return bytes(body)

    return mutated()


def _decodes_or_request_error(content_type, body):
    try:
        frames = parse_score_request(content_type, body, "frame")
    except RequestError as exc:
        assert exc.status == 400
        assert exc.code in ("bad_payload", "bad_shape")
        return None
    for name, array in frames:
        assert isinstance(name, str)
        assert array.ndim == 3
    return frames


# ----------------------------------------------------------------- npy
@SETTINGS
@given(_orders(_frames()))
def test_npy_round_trip_is_bitwise(array):
    [(image_id, decoded)] = parse_score_request("application/x-npy", npy_bytes(array), "f0")
    assert image_id == "f0"
    _assert_same_array(decoded, array)


@SETTINGS
@given(_orders(st.integers(0, 4).flatmap(lambda ndim: _frames(ndim=ndim))))
def test_npy_decoder_matches_np_load(array):
    body = npy_bytes(array)
    decoded = decode_npy(body)
    _assert_same_array(decoded, np.load(io.BytesIO(body), allow_pickle=False))
    assert not decoded.flags.writeable  # a view over the request body


@pytest.mark.parametrize("version", [(1, 0), (2, 0), (3, 0)])
def test_npy_format_versions(version):
    array = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 24.0
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, version=version)
    _assert_same_array(decode_npy(buffer.getvalue()), array)


@SETTINGS
@given(_mutations(_orders(_frames()).map(npy_bytes)))
def test_mutated_npy_raises_only_request_error(body):
    _decodes_or_request_error("application/x-npy", body)


@SETTINGS
@given(
    st.one_of(
        st.binary(max_size=256),
        st.binary(max_size=256).map(lambda tail: b"\x93NUMPY\x01\x00" + tail),
        st.binary(max_size=256).map(lambda tail: b"\x93NUMPY\x03\x00" + tail),
    )
)
def test_arbitrary_npy_bytes_raise_only_request_error(body):
    _decodes_or_request_error("application/x-npy", body)


class TestNpyRejections:
    """Each check ``np.load(allow_pickle=False)`` makes, plus exact length."""

    BODY = npy_bytes(np.full((2, 3, 4), 0.25))

    def _code(self, body):
        with pytest.raises(RequestError) as info:
            parse_score_request("application/x-npy", body, "frame")
        return info.value.status, info.value.code

    def test_bad_magic(self):
        assert self._code(b"not an npy" + self.BODY) == (400, "bad_payload")

    def test_unknown_version(self):
        body = self.BODY[:6] + b"\x09\x00" + self.BODY[8:]
        assert self._code(body) == (400, "bad_payload")

    def test_object_dtype(self):
        body = npy_bytes(np.array([[[None]]], dtype=object).repeat(2, axis=2))
        assert self._code(body) == (400, "bad_payload")

    def test_truncated_body(self):
        assert self._code(self.BODY[:-1]) == (400, "bad_payload")

    def test_trailing_bytes(self):
        assert self._code(self.BODY + b"\x00") == (400, "bad_payload")

    def test_npz_sent_as_npy(self):
        body = npz_bytes([("a", np.full((2, 2, 2), 0.5))])
        assert self._code(body) == (400, "bad_payload")

    def test_wrong_ndim_keeps_its_code(self):
        assert self._code(npy_bytes(np.ones((4, 4)))) == (400, "bad_shape")


# ----------------------------------------------------------------- npz
_NPZ_FRAMES = st.lists(_orders(_frames()), min_size=1, max_size=3)


@SETTINGS
@given(_NPZ_FRAMES)
def test_npz_round_trip_is_bitwise(arrays_in):
    named = [(f"frame_{index}", array) for index, array in enumerate(arrays_in)]
    decoded = parse_score_request("application/x-npz", npz_bytes(named), "frame")
    assert [name for name, _ in decoded] == [name for name, _ in named]
    for (_, got), (_, want) in zip(decoded, named):
        _assert_same_array(got, want)


@SETTINGS
@given(
    _mutations(
        _NPZ_FRAMES.map(
            lambda arrays_in: npz_bytes(
                [(f"frame_{index}", array) for index, array in enumerate(arrays_in)]
            )
        )
    )
)
def test_mutated_npz_raises_only_request_error(body):
    _decodes_or_request_error("application/x-npz", body)


@SETTINGS
@given(
    st.one_of(
        st.binary(max_size=256),
        st.binary(max_size=256).map(lambda tail: b"PK\x03\x04" + tail),
    )
)
def test_arbitrary_npz_bytes_raise_only_request_error(body):
    _decodes_or_request_error("application/x-npz", body)
