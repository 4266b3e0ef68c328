"""Request parsing for the scoring server (stdlib + numpy only).

Three request encodings are accepted on ``POST /score``:

* ``application/x-npy`` — one softmax field as raw ``.npy`` bytes
  (``numpy.save``); the frame id comes from the ``X-Image-Id`` header.
* ``application/x-npz`` / ``application/zip`` — a ``numpy.savez`` archive;
  each member is one frame, member names are the frame ids, archive order is
  response order.
* ``application/json`` — ``{"probs": [[[...]]], "image_id": "..."}`` for one
  frame or ``{"frames": [{"image_id": ..., "probs": ...}, ...]}`` for a
  batch.

Parsing is strictly separated from scoring: everything here raises
:class:`RequestError` with an HTTP status and a machine-readable error code,
which the handler maps to a structured JSON error response — a malformed
request must never produce a stack trace on the wire.  Numerical validation
(row sums, class count) stays in the extractor and surfaces as ``ValueError``
→ 400 in the handler.
"""

from __future__ import annotations

import ast
import io
import json
import math
import struct
from typing import List, Tuple

import numpy as np


class RequestError(Exception):
    """A client error with an HTTP status and machine-readable code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message


def _check_frame(name: str, array: np.ndarray) -> np.ndarray:
    array = np.asarray(array)
    if array.ndim != 3:
        raise RequestError(
            400,
            "bad_shape",
            f"frame {name!r}: softmax fields are 3-D (H, W, C) arrays, "
            f"got {array.ndim}-D",
        )
    return array


#: npy format versions: header-length field and header encoding.
_NPY_VERSIONS = {  # repro: allow[concurrency-shared-state] -- read-only after import (format table)
    (1, 0): ("<H", "latin1"),
    (2, 0): ("<I", "latin1"),
    (3, 0): ("<I", "utf8"),
}
#: Largest header accepted, as in ``np.load`` (``max_header_size``).
_NPY_MAX_HEADER = 10000


def _bad_npy(detail: str) -> RequestError:
    return RequestError(400, "bad_payload", f"could not decode npy payload: {detail}")


def decode_npy(body: bytes) -> np.ndarray:
    """Zero-copy ``.npy`` decoding: a read-only array over ``body`` itself.

    Makes every check of ``np.load(allow_pickle=False)`` — magic string and
    format version (1.0–3.0), header size and syntax, header keys, shape,
    ``fortran_order`` flag, dtype descriptor, no object dtypes — plus an
    exact length check: the body must hold exactly the bytes the header's
    shape and dtype call for, so truncated *and* trailing bytes are
    rejected.  Python-2 era headers with ``L``-suffixed integers, which
    ``np.load`` repairs, are rejected too.  Fortran-order
    and non-native byte-order payloads decode to the same array ``np.load``
    returns.  Every failure is a :class:`RequestError` ``bad_payload``.
    """
    if len(body) < 8 or body[:6] != b"\x93NUMPY":
        raise _bad_npy("the magic string is not correct")
    version = (body[6], body[7])
    if version not in _NPY_VERSIONS:
        raise _bad_npy(f"unsupported format version {version}")
    length_format, encoding = _NPY_VERSIONS[version]
    start = 8 + struct.calcsize(length_format)
    if len(body) < start:
        raise _bad_npy("truncated header")
    (header_length,) = struct.unpack_from(length_format, body, 8)
    stop = start + header_length
    if len(body) < stop:
        raise _bad_npy("truncated header")
    if header_length > _NPY_MAX_HEADER:
        raise _bad_npy(f"header of {header_length} bytes is too large")
    try:
        header = ast.literal_eval(body[start:stop].decode(encoding))
    except Exception as exc:  # SyntaxError, ValueError, UnicodeDecodeError, ...
        raise _bad_npy(f"cannot parse header: {exc}") from None
    if not isinstance(header, dict) or set(header) != {"descr", "fortran_order", "shape"}:
        raise _bad_npy("header must be a dict with keys descr, fortran_order and shape")
    shape, fortran_order = header["shape"], header["fortran_order"]
    if not isinstance(shape, tuple) or not all(
        isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0 for dim in shape
    ):
        raise _bad_npy(f"shape is not valid: {shape!r}")
    if not isinstance(fortran_order, bool):
        raise _bad_npy(f"fortran_order is not a valid bool: {fortran_order!r}")
    try:
        dtype = np.lib.format.descr_to_dtype(header["descr"])
    except Exception as exc:
        raise _bad_npy(f"descr is not a valid dtype descriptor: {exc}") from None
    if dtype.hasobject:
        raise _bad_npy("object arrays are not accepted")
    count = math.prod(shape)
    expected = count * dtype.itemsize
    if len(body) - stop != expected:
        raise _bad_npy(
            f"header describes {expected} data bytes, body carries {len(body) - stop}"
        )
    try:
        array = np.frombuffer(body, dtype=dtype, count=count, offset=stop)
        if fortran_order:
            return array.reshape(shape[::-1]).transpose()
        return array.reshape(shape)
    except Exception as exc:  # e.g. zero-sized dtypes
        raise _bad_npy(str(exc)) from None


def _parse_npy(body: bytes, image_id: str) -> List[Tuple[str, np.ndarray]]:
    return [(image_id, _check_frame(image_id, decode_npy(body)))]


def _parse_npz(body: bytes) -> List[Tuple[str, np.ndarray]]:
    try:
        archive = np.load(io.BytesIO(body), allow_pickle=False)
    except Exception as exc:  # BadZipFile, OSError, ValueError, EOFError, ...
        raise RequestError(
            400, "bad_payload", f"could not decode npz payload: {exc}"
        ) from None
    if not hasattr(archive, "files"):
        raise RequestError(400, "bad_payload", "expected an npz archive, got a bare array")
    frames: List[Tuple[str, np.ndarray]] = []
    for name in archive.files:
        # Members decode lazily: a damaged member surfaces here, as any of
        # BadZipFile, EOFError, NotImplementedError, ValueError, ...
        try:
            array = archive[name]
        except Exception as exc:
            raise RequestError(
                400, "bad_payload", f"could not decode npz member {name!r}: {exc}"
            ) from None
        frames.append((name, _check_frame(name, array)))
    if not frames:
        raise RequestError(400, "bad_payload", "npz archive contains no frames")
    return frames


def _parse_json(body: bytes, default_image_id: str) -> List[Tuple[str, np.ndarray]]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise RequestError(
            400, "bad_payload", f"could not decode JSON payload: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise RequestError(400, "bad_payload", "JSON payload must be an object")
    if "frames" in payload:
        entries = payload["frames"]
        if not isinstance(entries, list) or not entries:
            raise RequestError(400, "bad_payload", "'frames' must be a non-empty list")
    elif "probs" in payload:
        entries = [payload]
    else:
        raise RequestError(
            400, "bad_payload", "JSON payload needs a 'probs' or 'frames' field"
        )
    frames: List[Tuple[str, np.ndarray]] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or "probs" not in entry:
            raise RequestError(
                400, "bad_payload", f"frame {index}: missing 'probs' field"
            )
        name = str(entry.get("image_id", f"{default_image_id}_{index}" if len(entries) > 1 else default_image_id))
        try:
            array = np.asarray(entry["probs"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise RequestError(
                400, "bad_payload", f"frame {name!r}: non-numeric probs: {exc}"
            ) from None
        frames.append((name, _check_frame(name, array)))
    return frames


def parse_score_request(
    content_type: str, body: bytes, default_image_id: str = "frame"
) -> List[Tuple[str, np.ndarray]]:
    """Decode a ``/score`` request body into ``[(image_id, probs), ...]``.

    Raises :class:`RequestError` for anything the client got wrong.
    """
    media_type = (content_type or "").split(";")[0].strip().lower()
    if media_type == "application/x-npy":
        return _parse_npy(body, default_image_id)
    if media_type in ("application/x-npz", "application/zip"):
        return _parse_npz(body)
    if media_type == "application/json":
        return _parse_json(body, default_image_id)
    raise RequestError(
        415,
        "unsupported_media_type",
        f"unsupported content type {media_type or '(none)'!r}; use "
        f"application/x-npy, application/x-npz or application/json",
    )


__all__ = ["RequestError", "decode_npy", "parse_score_request"]
