"""Benchmark — fused single-pass metric extraction vs the seed path.

Two timings per case, each with bitwise parity asserted on every run:

* **features** — the fused :meth:`SegmentMetricsExtractor._compute_features`
  (banded heatmaps, grouped per-segment reductions) against the retained
  ``_reference_compute_features`` seed implementation (one heatmap pass per
  dispersion measure, one bincount pass per metric column); argmax and the
  segment decomposition are outside this timed region.  Full mode enforces
  fused >= 1.5x seed via the exit code.
* **extract_full** — the whole :meth:`SegmentMetricsExtractor.extract_full`
  (banded front end: validation, argmax and heatmaps in one pass over row
  bands shared with the helper lanes; boxed labelling; features) against the
  serial seed composition ``check_probability_field`` → ``argmax`` →
  ``extract_segments`` → ``_reference_compute_features``, and the same
  ``extract_full`` with the helper lanes switched off (``one_lane``), which
  separates the banding gain from the second lane's.

Invocation:

    PYTHONPATH=src python benchmarks/bench_extraction_fused.py           # full
    PYTHONPATH=src python benchmarks/bench_extraction_fused.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import Callable, Dict, List
from unittest import mock

import numpy as np

from _bench_common import write_artifact, write_bench_json, write_trajectory_json

from repro.core.metrics import SegmentMetricsExtractor
from repro.core.segments import extract_segments
from repro.segmentation.labels import cityscapes_label_space
from repro.utils import lanes
from repro.utils.validation import check_probability_field

#: (name, height, width, cell) benchmark cases; the cell size keeps each field
#: at a few hundred predicted segments.
FULL_CASES = (
    ("256x512", 256, 512, 16),
    ("512x1024", 512, 1024, 32),
)
SMOKE_CASES = (("128x256_smoke", 128, 256, 16),)


def make_case(height: int, width: int, cell: int, n_classes: int, seed: int = 0):
    """Synthetic softmax field whose argmax decomposes into chunky segments."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, n_classes, size=(height // cell + 1, width // cell + 1))
    bias = np.kron(grid, np.ones((cell, cell)))[:height, :width].astype(np.int64)
    logits = rng.normal(0.0, 1.0, size=(height, width, n_classes))
    logits[np.arange(height)[:, None], np.arange(width)[None, :], bias] += 4.0
    probs = np.exp(logits)
    probs /= probs.sum(axis=2, keepdims=True)
    prediction = extract_segments(np.argmax(probs, axis=2).astype(np.int64))
    return probs, prediction


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def seed_extract_full(extractor: SegmentMetricsExtractor, probs: np.ndarray):
    """The serial seed composition of ``extract_full`` (features, prediction)."""
    probs = check_probability_field(probs)
    labels = np.argmax(probs, axis=2).astype(np.int64)
    prediction = extract_segments(labels, connectivity=extractor.connectivity)
    return extractor._reference_compute_features(probs, prediction), prediction


def one_lane():
    """Context in which :func:`repro.utils.lanes.run_bands` gets no helpers."""
    return mock.patch.object(lanes, "_helpers", lambda: (None, 0))


def run_case(name: str, height: int, width: int, cell: int, repeats: int) -> Dict[str, object]:
    """Time seed vs fused extraction on one synthetic case and check parity."""
    label_space = cityscapes_label_space()
    extractor = SegmentMetricsExtractor(label_space=label_space)
    probs, prediction = make_case(height, width, cell, label_space.n_classes)

    fused = extractor._compute_features(probs, prediction)
    reference = extractor._reference_compute_features(probs, prediction)
    if not np.array_equal(fused, reference):
        mismatches = int(np.count_nonzero(fused != reference))
        raise AssertionError(f"{name}: {mismatches} feature entries diverge from the seed path")
    # The assembled dataset (features + ids + names) must match bitwise too.
    dataset = extractor.extract(probs)
    if not (
        np.array_equal(dataset.features, reference)
        and dataset.feature_names == extractor.feature_names()
        and np.array_equal(dataset.segment_ids, np.array(prediction.segment_ids()))
    ):
        raise AssertionError(f"{name}: extracted MetricsDataset diverges from the seed path")

    seed_features, seed_prediction = seed_extract_full(extractor, probs)
    for label, context in (("two-lane", contextlib.nullcontext()), ("one-lane", one_lane())):
        with context:
            full = extractor.extract_full(probs)
        if not (
            np.array_equal(full.dataset.features, seed_features)
            and np.array_equal(full.prediction.components, seed_prediction.components)
            and full.prediction.segments == seed_prediction.segments
        ):
            raise AssertionError(f"{name}: {label} extract_full diverges from the seed composition")

    reference_seconds = _best_of(
        lambda: extractor._reference_compute_features(probs, prediction), repeats
    )
    fused_seconds = _best_of(
        lambda: extractor._compute_features(probs, prediction), repeats
    )
    seed_full_seconds = _best_of(lambda: seed_extract_full(extractor, probs), repeats)
    full_seconds = _best_of(lambda: extractor.extract_full(probs), repeats)
    with one_lane():
        one_lane_seconds = _best_of(lambda: extractor.extract_full(probs), repeats)
    return {
        "case": name,
        "height": height,
        "width": width,
        "n_classes": label_space.n_classes,
        "n_segments": prediction.n_segments,
        "reference_seconds": reference_seconds,
        "fused_seconds": fused_seconds,
        "speedup": reference_seconds / fused_seconds if fused_seconds > 0 else float("inf"),
        "extract_full": {
            "seed_seconds": seed_full_seconds,
            "one_lane_seconds": one_lane_seconds,
            "seconds": full_seconds,
            "speedup": seed_full_seconds / full_seconds,
            "one_lane_speedup": seed_full_seconds / one_lane_seconds,
        },
    }


def run(smoke: bool = False) -> dict:
    """Run all cases and write the artifacts."""
    cases = SMOKE_CASES if smoke else FULL_CASES
    repeats = 3 if smoke else 5
    results: List[Dict[str, object]] = [
        run_case(name, height, width, cell, repeats)
        for name, height, width, cell in cases
    ]
    rows = ["metric extraction: seed column-at-a-time path vs fused single-pass path"]
    for result in results:
        rows.append(
            f"  {result['case']:<14s} segments {result['n_segments']:4d}  "
            f"seed {result['reference_seconds'] * 1e3:8.1f} ms  "
            f"fused {result['fused_seconds'] * 1e3:7.1f} ms  "
            f"speedup {result['speedup']:5.1f}x"
        )
    rows.append("extract_full: serial seed composition vs banded front end (one / two lanes)")
    for result in results:
        full = result["extract_full"]
        rows.append(
            f"  {result['case']:<14s} seed {full['seed_seconds'] * 1e3:8.1f} ms  "
            f"one lane {full['one_lane_seconds'] * 1e3:7.1f} ms  "
            f"two lanes {full['seconds'] * 1e3:7.1f} ms  "
            f"speedup {full['one_lane_speedup']:4.2f}x / {full['speedup']:4.2f}x"
        )
    write_artifact("extraction_fused", rows)
    payload = {"mode": "smoke" if smoke else "full", "lanes": lanes.lane_count(), "cases": results}
    write_bench_json("extraction_fused", payload)
    if not smoke:
        write_trajectory_json("extraction_fused", payload)
    return payload


def test_extraction_fused_speedup():
    """Smoke-mode pytest entry: the fused path must beat the seed path."""
    payload = run(smoke=True)
    for result in payload["cases"]:
        assert result["n_segments"] >= 50
        assert result["speedup"] > 1.0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small single case for CI (full mode runs 256x512 and 512x1024)",
    )
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)
    # Smoke runs (CI) gate parity (asserted inside run) plus a sanity
    # speedup; full runs enforce the acceptance criterion of the perf
    # issue: fused >= 1.5x the seed extraction path.
    min_speedup = 1.0 if args.smoke else 1.5
    big = payload["cases"][-1]
    if big["speedup"] < min_speedup:
        print(
            f"WARNING: speedup {big['speedup']:.2f}x below the {min_speedup:.1f}x target",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
