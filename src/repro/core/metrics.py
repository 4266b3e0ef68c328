"""Construction of segment-wise metrics µ(k).

For every predicted segment k the paper aggregates pixel-wise dispersion
measures and geometric quantities into a metric vector µ(k) ∈ R^m (Section II,
eq. (3)).  Following the MetaSeg construction ([16] of the paper) we compute:

* geometry: segment size S, interior size S_in, boundary size S_bd, and the
  fractality ratios S/S_bd and S_in/S_bd ("quotient of volume and boundary
  length");
* dispersion: for each heatmap D ∈ {E (entropy), M (probability margin),
  V (variation ratio)} the means over the whole segment, its interior and its
  boundary (D̄, D̄_in, D̄_bd) plus the boundary-relative variants
  D̄·S_bd/S and D̄_in·S_bd/max(S_in,1);
* mean class probabilities: the softmax probability of every class averaged
  over the segment (cprob_0 … cprob_{C-1}) and the mean probability of the
  predicted class itself;
* context: the predicted class id, a thing/stuff flag and the normalised
  centroid position.

The extractor is fully vectorised over segments **and** over metric columns,
in two stages:

* **Front end** (:func:`repro.core.heatmaps.field_pass`): one pass over row
  bands of the softmax field validates it, takes the argmax prediction and
  computes the dispersion heatmaps and the max-probability map.  The bands
  are shared between the calling thread and the process-wide helper lanes
  of :mod:`repro.utils.lanes` (rebuilt after ``fork``); fields of at most
  2 MiB stay one band on the caller.  Validation errors surface after the
  pass with the messages and in the order of
  :func:`~repro.utils.validation.check_probability_field`, before the class
  count is compared with the label space.
* **Aggregation** (:meth:`SegmentMetricsExtractor._compute_features`): all
  per-segment sums — dispersion heatmaps over the whole segment, its
  interior and its boundary, pixel coordinates and max probability — are
  ``np.bincount`` reductions over the component image; interior/boundary
  *counts* are derived by exact integer subtraction instead of masked
  re-bincounts.  The per-class mean probabilities accumulate band by band
  with unbuffered ``np.add.at`` over ``component_id * C + class`` codes.
  The class sums and the bincount columns are two independent halves,
  shared with a free helper lane like the bands of the front end.

Parity: every sum adds the same values to the same bin in the same
(pixel-major) order as the column-at-a-time seed implementation, which is
retained verbatim as ``_reference_compute_features``; the fused path is
bitwise-identical to it (``tests/test_core_metrics_dataset.py`` fuzzes the
parity, ``tests/test_band_pass.py`` covers the band layouts, and
``benchmarks/bench_extraction_fused.py`` times both stages).  Per-pixel
reductions stay along the class axis; no reduction is split across bands
and re-added, since a different summation order would change the bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import METRIC_GROUPS as METRIC_GROUP_REGISTRY
from repro.core.dataset import MetricsDataset
# ``fused_dispersion_heatmaps``, ``check_probability_field`` and
# ``extract_segments`` stay importable from this module: the layer tracing of
# ``perfbench/`` looks the extraction layers up here.
from repro.core.heatmaps import (  # noqa: F401
    FieldPass,
    _reference_dispersion_heatmaps,
    band_rows,
    field_pass,
    fused_dispersion_heatmaps,
)
from repro.core.segments import Segmentation, extract_segments, segment_ious
from repro.segmentation.labels import LabelSpace, cityscapes_label_space
from repro.utils.lanes import run_bands
from repro.utils.validation import (  # noqa: F401
    check_label_map,
    check_probability_field,
    check_same_shape,
)

#: Named groups of metrics, usable to select feature subsets (ablations and
#: the entropy-only baseline of Table I).
METRIC_GROUPS: Dict[str, Sequence[str]] = {
    "entropy_only": ("E_mean",),
    "dispersion": (
        "E_mean", "E_in_mean", "E_bd_mean", "E_rel", "E_rel_in",
        "M_mean", "M_in_mean", "M_bd_mean", "M_rel", "M_rel_in",
        "V_mean", "V_in_mean", "V_bd_mean", "V_rel", "V_rel_in",
    ),
    "geometry": ("S", "S_in", "S_bd", "S_rel", "S_rel_in"),
    "context": ("predicted_class", "is_thing", "centroid_row", "centroid_col", "pmax_mean"),
}

# Expose the metric groups through the experiment-API registry ("all" = no
# restriction, i.e. the full metric vector of eq. (3)).
METRIC_GROUP_REGISTRY.register("all", None)
for _group_name, _group_features in METRIC_GROUPS.items():
    METRIC_GROUP_REGISTRY.register(_group_name, tuple(_group_features))


@dataclass
class ImageMetrics:
    """Intermediate result of metric extraction for one image."""

    dataset: MetricsDataset
    prediction: Segmentation
    ground_truth: Optional[Segmentation]


class SegmentMetricsExtractor:
    """Compute segment-wise metrics µ(k) from a softmax field.

    Parameters
    ----------
    label_space:
        Label space used to name the per-class probability features and to
        derive the thing/stuff flag.
    connectivity:
        Connectivity used for the connected-component decomposition.
    ignore_id:
        Ground-truth value marking pixels without annotation.
    """

    def __init__(
        self,
        label_space: Optional[LabelSpace] = None,
        connectivity: int = 8,
        ignore_id: int = -1,
    ) -> None:
        self.label_space = label_space or cityscapes_label_space()
        if connectivity not in (4, 8):
            raise ValueError("connectivity must be 4 or 8")
        self.connectivity = connectivity
        self.ignore_id = ignore_id
        # Per-shape scratch buffers (pixel coordinate grids) reused across
        # frames; video pipelines process thousands of equally-sized frames,
        # so the grids are allocated once per resolution instead of per frame.
        self._grid_cache: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

    def _pixel_grids(self, height: int, width: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cached (row, col) coordinate grids for a frame shape."""
        key = (height, width)
        grids = self._grid_cache.get(key)
        if grids is None:
            rows_grid, cols_grid = np.meshgrid(
                np.arange(height, dtype=np.float64),
                np.arange(width, dtype=np.float64),
                indexing="ij",
            )
            grids = (rows_grid, cols_grid)
            # Idempotent per-key write: racing threads store identical grids.
            self._grid_cache[key] = grids
        return grids

    def __getstate__(self):
        """Drop the bulky per-shape grid cache when pickled."""
        state = self.__dict__.copy()
        state["_grid_cache"] = {}
        return state

    # ------------------------------------------------------------------ ---
    def feature_names(self) -> List[str]:
        """Names of all features produced by :meth:`extract`, in order."""
        names: List[str] = []
        names.extend(METRIC_GROUPS["geometry"])
        names.extend(METRIC_GROUPS["dispersion"])
        names.extend(METRIC_GROUPS["context"])
        names.extend(f"cprob_{spec.name.replace(' ', '_')}" for spec in self.label_space)
        return names

    def extract(
        self,
        probs: np.ndarray,
        gt_labels: Optional[np.ndarray] = None,
        image_id: str = "image",
    ) -> MetricsDataset:
        """Extract the structured metrics dataset for one image.

        Parameters
        ----------
        probs:
            (H, W, C) softmax field of the segmentation network.
        gt_labels:
            Optional ground-truth label map.  When given, the segment-wise IoU
            targets are computed; when omitted the dataset carries only
            features (used e.g. for deployment-time quality estimation).
        image_id:
            Identifier stored with every segment for bookkeeping.
        """
        return self.extract_full(probs, gt_labels=gt_labels, image_id=image_id).dataset

    def extract_full(
        self,
        probs: np.ndarray,
        gt_labels: Optional[np.ndarray] = None,
        image_id: str = "image",
    ) -> ImageMetrics:
        """Like :meth:`extract` but also return the segment decompositions.

        The front end is one banded :func:`~repro.core.heatmaps.field_pass`:
        validation, the argmax prediction and every dispersion heatmap come
        out of a single read of the softmax field, with the same errors in
        the same order as a whole-field :func:`check_probability_field`.
        """
        front = field_pass(probs)
        probs = front.field
        if probs.shape[2] != self.label_space.n_classes:
            raise ValueError(
                f"probability field has {probs.shape[2]} classes, "
                f"label space has {self.label_space.n_classes}"
            )
        prediction = extract_segments(front.labels, connectivity=self.connectivity)
        ground_truth = None
        iou: Optional[np.ndarray] = None
        if gt_labels is not None:
            gt_labels = check_label_map(gt_labels)
            check_same_shape(probs, gt_labels, "probs", "gt_labels")
            ground_truth = extract_segments(
                gt_labels, connectivity=self.connectivity, ignore_id=self.ignore_id
            )
            iou_map = segment_ious(prediction, ground_truth, ignore_id=self.ignore_id)
            iou = np.array([iou_map[sid] for sid in prediction.segment_ids()], dtype=np.float64)

        features = self._compute_features(probs, prediction, front)
        segment_ids = np.array(prediction.segment_ids(), dtype=np.int64)
        class_ids = np.array(
            [prediction.segments[sid].class_id for sid in prediction.segment_ids()], dtype=np.int64
        )
        dataset = MetricsDataset(
            features=features,
            feature_names=self.feature_names(),
            segment_ids=segment_ids,
            class_ids=class_ids,
            image_ids=np.array([image_id] * segment_ids.shape[0], dtype=object),
            iou=iou,
        )
        return ImageMetrics(dataset=dataset, prediction=prediction, ground_truth=ground_truth)

    # ------------------------------------------------------------------ ---
    def _compute_features(
        self,
        probs: np.ndarray,
        prediction: Segmentation,
        front: Optional[FieldPass] = None,
    ) -> np.ndarray:
        """Fused single-pass aggregation of all segment metrics.

        ``front`` carries the heatmaps of an earlier :func:`field_pass` over
        ``probs`` (as in :meth:`extract_full`); without it they are computed
        here, unvalidated.  Bitwise-identical to
        :meth:`_reference_compute_features` (the seed column-at-a-time path):
        every reduction adds the same weights to the same bins in the same
        (pixel-major) order as the seed's one-bincount-per-column loop, and
        the interior/boundary counts it derives by subtraction are exact in
        float64.
        """
        components = prediction.components
        n_segments = prediction.n_segments
        n_bins = n_segments + 1
        flat_components = components.ravel()
        height, width = components.shape
        n_classes = probs.shape[2]

        sizes = np.bincount(flat_components, minlength=n_bins).astype(np.float64)
        interior = self._interior_mask(components)
        interior_flat = interior.ravel()
        boundary_flat = ~interior_flat
        components_interior = flat_components[interior_flat]
        components_boundary = flat_components[boundary_flat]
        sizes_in = np.bincount(components_interior, minlength=n_bins).astype(np.float64)
        # Exact: both operands are integers well below 2**53, so the
        # difference carries the same float64 bits as a direct bincount of
        # the boundary pixels.
        sizes_bd = sizes - sizes_in

        if front is None:
            front = field_pass(probs, validate=False, labels=False)
        heatmaps, pmax = front.heatmaps, front.pmax

        def _mean(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
            """Per-segment mean from precomputed sums and counts."""
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)

        def _sum(values_flat: np.ndarray) -> np.ndarray:
            """Per-segment sum of an already-flat full-image value array."""
            return np.bincount(flat_components, weights=values_flat, minlength=n_bins)

        rows_grid, cols_grid = self._pixel_grids(height, width)
        sums: Dict[str, np.ndarray] = {}

        def column_sums() -> None:
            # The three interior/boundary-restricted dispersion reductions
            # reuse the hoisted component selections and the exact counts
            # derived above (the seed path re-extracts mask-selected
            # components and re-counts them for every heatmap).
            for key in ("E", "M", "V"):
                heatmap_flat = heatmaps[key].ravel()
                sums[key] = _sum(heatmap_flat)
                sums[key + "_in"] = np.bincount(
                    components_interior, weights=heatmap_flat[interior_flat], minlength=n_bins
                )
                sums[key + "_bd"] = np.bincount(
                    components_boundary, weights=heatmap_flat[boundary_flat], minlength=n_bins
                )
            sums["rows"] = _sum(rows_grid.ravel())
            sums["cols"] = _sum(cols_grid.ravel())
            sums["pmax"] = _sum(pmax.ravel())

        def class_sums() -> None:
            # Per-class probability sums, accumulated band by band with
            # unbuffered ``np.add.at`` over codes component_id * C + class:
            # per bin the additions run in the same pixel order as the
            # seed's per-class bincount, while the codes and the field rows
            # of one band stay cache-resident (no (H*W, C) code array).
            accumulator = np.zeros(n_bins * n_classes)
            class_offsets = np.arange(n_classes, dtype=np.int64)
            field_rows = probs.reshape(height * width, n_classes)
            step = band_rows(height, width, n_classes) * width
            for start in range(0, height * width, step):
                stop = min(start + step, height * width)
                codes = np.add(
                    (flat_components[start:stop] * n_classes)[:, None], class_offsets[None, :]
                )
                np.add.at(accumulator, codes.ravel(), field_rows[start:stop].ravel())
            sums["class"] = accumulator.reshape(n_bins, n_classes)

        # Two independent halves: the caller runs one, a free helper lane
        # (if any) the other.
        halves = (class_sums, column_sums)
        run_bands(len(halves), lambda index: halves[index]())

        columns: List[np.ndarray] = []
        # geometry ------------------------------------------------------------
        safe_bd = np.maximum(sizes_bd, 1.0)
        columns.append(sizes)                       # S
        columns.append(sizes_in)                    # S_in
        columns.append(sizes_bd)                    # S_bd
        columns.append(sizes / safe_bd)             # S_rel
        columns.append(sizes_in / safe_bd)          # S_rel_in
        # dispersion ----------------------------------------------------------
        for key in ("E", "M", "V"):
            mean_all = _mean(sums[key], sizes)
            mean_in = _mean(sums[key + "_in"], sizes_in)
            mean_bd = _mean(sums[key + "_bd"], sizes_bd)
            columns.append(mean_all)                               # D_mean
            columns.append(mean_in)                                # D_in_mean
            columns.append(mean_bd)                                # D_bd_mean
            columns.append(mean_all * sizes_bd / np.maximum(sizes, 1.0))      # D_rel
            columns.append(mean_in * sizes_bd / np.maximum(sizes_in, 1.0))    # D_rel_in
        # context ---------------------------------------------------------------
        class_per_segment = np.zeros(n_bins, dtype=np.float64)
        is_thing = np.zeros(n_bins, dtype=np.float64)
        thing_ids = set(self.label_space.thing_ids())
        for sid, info in prediction.segments.items():
            class_per_segment[sid] = info.class_id
            is_thing[sid] = 1.0 if info.class_id in thing_ids else 0.0
        columns.append(class_per_segment)
        columns.append(is_thing)
        columns.append(_mean(sums["rows"], sizes) / max(1, height - 1))
        columns.append(_mean(sums["cols"], sizes) / max(1, width - 1))
        columns.append(_mean(sums["pmax"], sizes))                  # pmax_mean
        # per-class mean probabilities -----------------------------------------
        for class_index in range(n_classes):
            columns.append(_mean(sums["class"][:, class_index], sizes))

        matrix = np.stack(columns, axis=1)
        # Drop the background bin 0; segments are 1..n.
        return matrix[1:, :]

    def _reference_compute_features(
        self, probs: np.ndarray, prediction: Segmentation
    ) -> np.ndarray:
        """Seed column-at-a-time extraction (one bincount pass per metric).

        Retained verbatim as the parity ground truth of the fused
        :meth:`_compute_features` and as the baseline timed by
        ``benchmarks/bench_extraction_fused.py``; do not use on hot paths.
        """
        components = prediction.components
        n_segments = prediction.n_segments
        n_bins = n_segments + 1
        flat_components = components.ravel()
        height, width = components.shape

        sizes = np.bincount(flat_components, minlength=n_bins).astype(np.float64)
        interior = self._interior_mask(components)
        interior_flat = interior.ravel()
        sizes_in = np.bincount(
            flat_components[interior_flat], minlength=n_bins
        ).astype(np.float64)
        sizes_bd = sizes - sizes_in

        heatmaps = _reference_dispersion_heatmaps(probs)

        def _segment_mean(values: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
            """Mean of *values* per segment (optionally restricted to a mask)."""
            flat_values = values.ravel()
            if mask is None:
                sums = np.bincount(flat_components, weights=flat_values, minlength=n_bins)
                counts = sizes
            else:
                flat_mask = mask.ravel()
                sums = np.bincount(
                    flat_components[flat_mask], weights=flat_values[flat_mask], minlength=n_bins
                )
                counts = np.bincount(flat_components[flat_mask], minlength=n_bins).astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                means = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
            return means

        columns: List[np.ndarray] = []
        # geometry ------------------------------------------------------------
        safe_bd = np.maximum(sizes_bd, 1.0)
        columns.append(sizes)                       # S
        columns.append(sizes_in)                    # S_in
        columns.append(sizes_bd)                    # S_bd
        columns.append(sizes / safe_bd)             # S_rel
        columns.append(sizes_in / safe_bd)          # S_rel_in
        # dispersion ----------------------------------------------------------
        boundary = ~interior
        for key in ("E", "M", "V"):
            heatmap = heatmaps[key]
            mean_all = _segment_mean(heatmap)
            mean_in = _segment_mean(heatmap, interior)
            mean_bd = _segment_mean(heatmap, boundary)
            columns.append(mean_all)                               # D_mean
            columns.append(mean_in)                                # D_in_mean
            columns.append(mean_bd)                                # D_bd_mean
            columns.append(mean_all * sizes_bd / np.maximum(sizes, 1.0))      # D_rel
            columns.append(mean_in * sizes_bd / np.maximum(sizes_in, 1.0))    # D_rel_in
        # context ---------------------------------------------------------------
        class_per_segment = np.zeros(n_bins, dtype=np.float64)
        is_thing = np.zeros(n_bins, dtype=np.float64)
        thing_ids = set(self.label_space.thing_ids())
        for sid, info in prediction.segments.items():
            class_per_segment[sid] = info.class_id
            is_thing[sid] = 1.0 if info.class_id in thing_ids else 0.0
        columns.append(class_per_segment)
        columns.append(is_thing)
        rows_grid, cols_grid = self._pixel_grids(height, width)
        centroid_row = _segment_mean(rows_grid) / max(1, height - 1)
        centroid_col = _segment_mean(cols_grid) / max(1, width - 1)
        columns.append(centroid_row)
        columns.append(centroid_col)
        columns.append(_segment_mean(probs.max(axis=2)))            # pmax_mean
        # per-class mean probabilities -----------------------------------------
        for class_index in range(self.label_space.n_classes):
            columns.append(_segment_mean(probs[:, :, class_index]))

        matrix = np.stack(columns, axis=1)
        # Drop the background bin 0; segments are 1..n.
        return matrix[1:, :]

    def _interior_mask(self, components: np.ndarray) -> np.ndarray:
        """Pixels all of whose 4-neighbours belong to the same segment."""
        height, width = components.shape
        interior = np.ones((height, width), dtype=bool)
        interior[:-1, :] &= components[:-1, :] == components[1:, :]
        interior[1:, :] &= components[1:, :] == components[:-1, :]
        interior[:, :-1] &= components[:, :-1] == components[:, 1:]
        interior[:, 1:] &= components[:, 1:] == components[:, :-1]
        # Image border pixels count as boundary pixels of their segment.
        interior[0, :] = False
        interior[-1, :] = False
        interior[:, 0] = False
        interior[:, -1] = False
        return interior
