"""Minimal dependency-free PNG codec for label maps.

Cityscapes ``gtFine`` annotations are 8-bit single-channel PNGs of raw label
ids.  The container image deliberately ships no imaging library (no Pillow,
no imageio), so this module implements the tiny subset of the PNG spec the
disk dataset needs, on top of :mod:`zlib` and :mod:`struct`:

* :func:`write_png_gray8` / :func:`encode_png_gray8` — write a 2-D
  ``uint8`` array as an 8-bit grayscale PNG file or bytes (filter type 0
  per scanline; one IDAT chunk);
* :func:`read_png_gray8` / :func:`decode_png_gray8` — read an 8-bit
  grayscale, non-interlaced PNG file or bytes back into a 2-D ``uint8``
  array.  All five scanline filter types (None / Sub / Up / Average /
  Paeth) are supported, so files produced by standard encoders (which pick
  filters adaptively) decode correctly, not only our own filter-0 output.

Anything outside that subset — palette or RGB color types, 16-bit depth,
interlacing — raises :class:`PngError` with the offending property named,
never a silent misread: a label map decoded wrongly would corrupt every
downstream IoU target.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Union

import numpy as np

#: The 8-byte PNG file signature.
_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class PngError(ValueError):
    """A file is not a PNG of the supported subset (8-bit grayscale)."""


def _chunk(tag: bytes, payload: bytes) -> bytes:
    """One PNG chunk: length, tag, payload, CRC over tag+payload."""
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_png_gray8(path: Union[str, Path], image: np.ndarray) -> None:
    """Write a 2-D ``uint8`` array as an 8-bit grayscale PNG."""
    Path(path).write_bytes(encode_png_gray8(image))


def encode_png_gray8(image: np.ndarray) -> bytes:
    """The 8-bit grayscale PNG bytes of a 2-D ``uint8`` array."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.size == 0:
        raise PngError(f"image must be a non-empty 2-D array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer) or arr.min() < 0 or arr.max() > 255:
            raise PngError(
                f"image values must fit uint8 (got dtype {arr.dtype}, "
                f"range [{arr.min()}, {arr.max()}])"
            )
        arr = arr.astype(np.uint8)
    height, width = arr.shape
    # bit depth 8, color type 0 (grayscale), no compression/filter/interlace.
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    # Filter byte 0 (None) in front of every scanline.
    raw = np.empty((height, width + 1), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = arr
    return (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw.tobytes(), level=6))
        + _chunk(b"IEND", b"")
    )


def _unfilter(filtered: np.ndarray, height: int, width: int) -> np.ndarray:
    """Reverse the per-scanline PNG filters (bytes-per-pixel = 1)."""
    rows = filtered.reshape(height, width + 1)
    filters = rows[:, 0]
    out = np.zeros((height, width), dtype=np.uint8)
    for y in range(height):
        filter_type = int(filters[y])
        line = rows[y, 1:].astype(np.int64)
        prior = out[y - 1].astype(np.int64) if y > 0 else np.zeros(width, dtype=np.int64)
        if filter_type == 0:  # None
            out[y] = line.astype(np.uint8)
        elif filter_type == 1:  # Sub: recon[x] = line[x] + recon[x-1]
            out[y] = np.cumsum(line, dtype=np.int64).astype(np.uint8)
        elif filter_type == 2:  # Up
            out[y] = ((line + prior) % 256).astype(np.uint8)
        elif filter_type == 3:  # Average
            left = 0
            row = out[y]
            for x in range(width):
                left = (int(line[x]) + (left + int(prior[x])) // 2) % 256
                row[x] = left
        elif filter_type == 4:  # Paeth
            left = 0
            upper_left = 0
            row = out[y]
            for x in range(width):
                above = int(prior[x])
                p = left + above - upper_left
                pa, pb, pc = abs(p - left), abs(p - above), abs(p - upper_left)
                if pa <= pb and pa <= pc:
                    predictor = left
                elif pb <= pc:
                    predictor = above
                else:
                    predictor = upper_left
                left = (int(line[x]) + predictor) % 256
                row[x] = left
                upper_left = above
        else:
            raise PngError(f"unknown scanline filter type {filter_type}")
    return out


def read_png_gray8(path: Union[str, Path]) -> np.ndarray:
    """Read an 8-bit grayscale non-interlaced PNG as a 2-D ``uint8`` array."""
    path = Path(path)
    return decode_png_gray8(path.read_bytes(), str(path))


def decode_png_gray8(data: bytes, source: str = "<bytes>") -> np.ndarray:
    """Decode 8-bit grayscale PNG bytes; any other input raises :class:`PngError`.

    ``source`` names the input in error messages.
    """
    if not data.startswith(_SIGNATURE):
        raise PngError(f"{source} is not a PNG file (bad signature)")
    offset = len(_SIGNATURE)
    header = None
    idat = bytearray()
    while offset + 8 <= len(data):
        (length,) = struct.unpack_from(">I", data, offset)
        tag = data[offset + 4 : offset + 8]
        payload = data[offset + 8 : offset + 8 + length]
        if len(payload) != length:
            raise PngError(f"{source} is truncated inside chunk {tag!r}")
        if tag == b"IHDR":
            if length != 13:
                raise PngError(f"{source} has a {length}-byte IHDR chunk, expected 13")
            header = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
        offset += 12 + length  # length + tag + payload + CRC
    if header is None:
        raise PngError(f"{source} has no IHDR chunk")
    width, height, bit_depth, color_type, _, _, interlace = header
    if width == 0 or height == 0:
        raise PngError(f"{source} declares an empty {width}x{height} image")
    if bit_depth != 8 or color_type != 0:
        raise PngError(
            f"{source} is not 8-bit grayscale (bit depth {bit_depth}, "
            f"color type {color_type}); label maps must be *_labelIds-style PNGs"
        )
    if interlace != 0:
        raise PngError(f"{source} is interlaced, which is not supported")
    if not idat:
        raise PngError(f"{source} has no IDAT chunk")
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise PngError(f"{source} has corrupt image data: {exc}") from None
    expected = height * (width + 1)
    if len(raw) != expected:
        raise PngError(
            f"{source} decodes to {len(raw)} bytes, expected {expected} "
            f"for {width}x{height} grayscale"
        )
    return _unfilter(np.frombuffer(raw, dtype=np.uint8), height, width)
