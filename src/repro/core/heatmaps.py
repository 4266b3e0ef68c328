"""Pixel-wise dispersion heatmaps.

Section II of the paper constructs segment metrics "based on dispersion
measures of f_z(y|x,w) (entropy, probability margin)".  This module computes
those dispersion measures per pixel; :mod:`repro.core.metrics` aggregates them
over segments.

All heatmaps are normalised to [0, 1]:

* ``entropy_heatmap`` — Shannon entropy of the pixel's class distribution,
  divided by log(C);
* ``probability_margin_heatmap`` — 1 minus the difference between the largest
  and second-largest class probability (1 = maximal ambiguity);
* ``variation_ratio_heatmap`` — 1 minus the largest class probability.

The band pass
-------------
:func:`field_pass` is the front end of metric extraction: validation, the
argmax prediction and all three heatmaps plus the max-probability map come
out of **one** read of the (H, W, C) softmax field.

* **Band layout.**  The field is cut into bands of whole rows,
  ``probs[r0:r1]``, of about ``BAND_BYTES`` (1 MiB of float64 rows: 13 rows
  at 256×512×19).  Each band yields its slice of every per-pixel output —
  the validation terms (any negative entry, the per-pixel class sums),
  the argmax, the top-2 partition (``pmax``, M, V) and the clipped
  ``x·log x`` sum (E) — written into preallocated (H, W) outputs, so the
  band is read from memory once and reworked while cache-resident.  Work
  space is two band-sized buffers per thread, not full-field scratch.
* **Lanes.**  Bands are shared between the caller and the process-wide
  helper lanes of :func:`repro.utils.lanes.run_bands`: the caller works
  through the bands itself and helpers only take bands nobody has started,
  so nested callers (thread-pool extraction, serve workers) never run
  slower than serial.  The pool is rebuilt in forked children.
* **Small fields stay whole.**  Fields up to ``SPLIT_MIN_BYTES`` (2 MiB) run
  as a single band on the caller.  Front-end medians, seed composition →
  one band → split over two lanes, on a 2-core Xeon VM: 64×128 3.0 → 3.0 →
  3.1 ms; 96×192 8.6 → 8.7 → 6.0 ms; 128×256 15.2 → 15.7 → 9.6 ms;
  256×512 69 → 82 → 33 ms; 512×1024 250 → 318 → 125 ms.
* **Parity.**  Every output is bitwise-identical to the whole-field seed
  composition (``check_probability_field`` + ``argmax`` +
  :func:`_reference_dispersion_heatmaps`).  Reductions stay along the
  class axis of each band — the same per-pixel summation order as on the
  whole field — never as per-class plane arithmetic, whose different
  summation order would change the last bits.  Validation errors are raised
  after all bands finish, in the whole-field order (shape, class count,
  negatives, row sums) with the whole-field messages, the row-sum deviation
  taken over the entire field.

``fused_dispersion_heatmaps`` is the heatmap half of the band pass (no
argmax), kept as the single-call primitive for callers that need only the
maps.
"""

from __future__ import annotations

import threading
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.utils.lanes import run_bands
from repro.utils.validation import (
    PROBABILITY_TOL,
    check_field_shape,
    check_field_terms,
    check_probability_field,
)

#: Float64 bytes of softmax rows in one band.  Half of a 2 MiB L2: the band's
#: input rows and its two work buffers of the same size stay cache-resident.
BAND_BYTES = 1 << 20
#: Fields up to this size (two bands) run as one band on the caller: below
#: it a split gains nothing measurable (see the module docstring).
SPLIT_MIN_BYTES = 2 * BAND_BYTES


def entropy_heatmap(probs: np.ndarray) -> np.ndarray:
    """Normalised Shannon entropy per pixel (values in [0, 1])."""
    probs = check_probability_field(probs)
    n_classes = probs.shape[2]
    clipped = np.clip(probs, 1e-12, 1.0)
    entropy = -np.sum(clipped * np.log(clipped), axis=2)
    return entropy / np.log(n_classes)


def variation_ratio_heatmap(probs: np.ndarray) -> np.ndarray:
    """1 - max class probability per pixel (values in [0, 1])."""
    probs = check_probability_field(probs)
    return 1.0 - probs.max(axis=2)


def probability_margin_heatmap(probs: np.ndarray) -> np.ndarray:
    """1 - (largest minus second-largest class probability) per pixel."""
    probs = check_probability_field(probs)
    # Partition so the two largest probabilities sit in the last two slots.
    top_two = np.partition(probs, probs.shape[2] - 2, axis=2)[:, :, -2:]
    margin = top_two[:, :, 1] - top_two[:, :, 0]
    return 1.0 - margin


class FieldPass(NamedTuple):
    """Every per-pixel output of :func:`field_pass` for one softmax field."""

    field: np.ndarray
    """The validated field as ``float64`` (the input itself when it already is)."""
    labels: Optional[np.ndarray]
    """(H, W) ``int64`` argmax prediction, or None when not requested."""
    heatmaps: Dict[str, np.ndarray]
    """The ``{"E", "M", "V"}`` dispersion heatmaps."""
    pmax: np.ndarray
    """(H, W) maximum class probability."""


_LANE_BUFFERS = threading.local()


def _band_buffers(shape: Tuple[int, int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """This thread's two band work buffers, viewed as ``shape``.

    Freshly allocated buffers cost their page faults on every call (about
    as much as the arithmetic on a small field), so each thread keeps one
    pair, grown to the largest band it has seen: ``SPLIT_MIN_BYTES`` each
    at most (unless one row alone is larger).  Nothing returned by
    :func:`field_pass` aliases them.
    """
    size = shape[0] * shape[1] * shape[2]
    buffers = getattr(_LANE_BUFFERS, "pair", None)
    if buffers is None or buffers[0].size < size:
        buffers = _LANE_BUFFERS.pair = (np.empty(size), np.empty(size))
    return buffers[0][:size].reshape(shape), buffers[1][:size].reshape(shape)


def band_rows(height: int, width: int, n_classes: int) -> int:
    """Rows per band of an (H, W, C) float64 field (H itself: one band)."""
    if height * width * n_classes * 8 <= SPLIT_MIN_BYTES:
        return max(1, height)
    return max(1, BAND_BYTES // (width * n_classes * 8))


def field_pass(probs: np.ndarray, validate: bool = True, labels: bool = True) -> FieldPass:
    """Validation, argmax and all dispersion heatmaps in one banded pass.

    Each band of rows is read once while it is cache-resident: the band
    yields its validation terms (any entry below ``-PROBABILITY_TOL``, the per-pixel
    class sums), its argmax, its top-2 partition (``pmax``, M, V) and its
    clipped ``x·log x`` sum (E), written straight into preallocated (H, W)
    outputs.  Bands are shared with the helper lanes of
    :func:`repro.utils.lanes.run_bands`; see the module docstring for the
    band layout and the parity rules.  Validation errors are raised after
    every band has finished, with the messages of
    :func:`~repro.utils.validation.check_probability_field`.
    """
    arr = np.asarray(probs, dtype=np.float64)
    check_field_shape(arr)
    height, width, n_classes = arr.shape
    rows = band_rows(height, width, n_classes)
    n_bands = -(-height // rows)
    log_classes = np.log(n_classes)
    argmax_out = np.empty((height, width), dtype=np.intp) if labels else None
    pmax = np.empty((height, width))
    entropy = np.empty((height, width))
    margin = np.empty((height, width))
    variation = np.empty((height, width))
    sums = np.empty((height, width)) if validate else None
    negative = [False] * n_bands

    def band(index: int) -> None:
        part = slice(index * rows, min(height, (index + 1) * rows))
        chunk = arr[part]
        # Out-of-range entries (inf, nan) of a field that fails validation
        # below must not warn on their way there.
        with np.errstate(all="ignore"):
            if validate:
                negative[index] = bool(np.any(chunk < -PROBABILITY_TOL))
                chunk.sum(axis=2, out=sums[part])
            if argmax_out is not None:
                np.argmax(chunk, axis=2, out=argmax_out[part])
            work, integrand = _band_buffers(chunk.shape)
            np.copyto(work, chunk)
            work.partition(n_classes - 2, axis=2)
            top, second = work[:, :, -1], work[:, :, -2]
            pmax[part] = top
            np.subtract(top, second, out=margin[part])
            np.subtract(1.0, margin[part], out=margin[part])
            np.subtract(1.0, top, out=variation[part])
            clipped = np.clip(chunk, 1e-12, 1.0, out=work)
            np.log(clipped, out=integrand)
            np.multiply(clipped, integrand, out=integrand)
            band_entropy = entropy[part]
            np.sum(integrand, axis=2, out=band_entropy)
            np.negative(band_entropy, out=band_entropy)
            np.divide(band_entropy, log_classes, out=band_entropy)

    run_bands(n_bands, band)
    if validate:
        check_field_terms(any(negative), sums)
    return FieldPass(
        field=arr,
        labels=None if argmax_out is None else argmax_out.astype(np.int64, copy=False),
        heatmaps={"E": entropy, "M": margin, "V": variation},
        pmax=pmax,
    )


def fused_dispersion_heatmaps(probs: np.ndarray) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """All dispersion heatmaps plus the max-probability map, in one pass.

    The heatmap half of :func:`field_pass` (validation, no argmax),
    bitwise-identical to calling the individual heatmap functions.

    Returns
    -------
    heatmaps, pmax:
        The ``{"E", "M", "V"}`` dict of :func:`dispersion_heatmaps` and the
        per-pixel maximum class probability.
    """
    front = field_pass(probs, labels=False)
    return front.heatmaps, front.pmax


def dispersion_heatmaps(probs: np.ndarray) -> Dict[str, np.ndarray]:
    """All dispersion heatmaps keyed by their short names (E, M, V)."""
    heatmaps, _pmax = fused_dispersion_heatmaps(probs)
    return heatmaps


def _reference_dispersion_heatmaps(probs: np.ndarray) -> Dict[str, np.ndarray]:
    """Seed implementation of :func:`dispersion_heatmaps` (one pass per map).

    Retained verbatim as the baseline of the fused-extraction parity tests
    and ``benchmarks/bench_extraction_fused.py``; do not use on hot paths.
    """
    probs = check_probability_field(probs)
    return {
        "E": entropy_heatmap(probs),
        "M": probability_margin_heatmap(probs),
        "V": variation_ratio_heatmap(probs),
    }
