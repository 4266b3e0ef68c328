"""Tests for the shared execution helpers and the pipelines' range walks.

Every pipeline walk is a range ``start..stop`` of independent items; the
tests pin that folding any split of a dataset into ranges is bit-identical
to one whole-dataset walk.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import pytest

from repro.api.execution import shard_ranges
from repro.core.batching import map_ordered, normalize_max_workers
from repro.core.dataset import MetricsDataset


class TestMapOrdered:
    def test_serial_preserves_order(self):
        assert map_ordered(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_threaded_preserves_order(self):
        items = list(range(50))
        assert map_ordered(lambda x: x + 1, items, max_workers=4) == [x + 1 for x in items]

    def test_single_item_runs_serially(self):
        assert map_ordered(lambda x: x, [7], max_workers=8) == [7]

    def test_negative_workers_raises(self):
        with pytest.raises(ValueError):
            map_ordered(lambda x: x, [1, 2], max_workers=-1)

    def test_zero_workers_runs_serially(self):
        # The unified contract: None, 0 and 1 all mean serial execution.
        assert map_ordered(lambda x: x * 2, [1, 2, 3], max_workers=0) == [2, 4, 6]


class TestNormalizeMaxWorkers:
    """The library-wide worker contract lives in exactly one place."""

    def test_none_without_default_stays_none(self):
        assert normalize_max_workers(None) is None

    def test_none_falls_back_to_default(self):
        assert normalize_max_workers(None, 4) == 4

    def test_explicit_value_wins_over_default(self):
        assert normalize_max_workers(2, 8) == 2

    @pytest.mark.parametrize("serial", [0, 1])
    def test_serial_values_pass_through(self, serial):
        assert normalize_max_workers(serial) == serial

    @pytest.mark.parametrize("bad", [-1, -7])
    def test_negative_rejected_with_contract_message(self, bad):
        with pytest.raises(ValueError, match="None, 0 and 1 run serially"):
            normalize_max_workers(bad)

    def test_negative_default_also_rejected(self):
        with pytest.raises(ValueError):
            normalize_max_workers(None, -2)


def _assert_datasets_identical(left, right):
    assert left.feature_names == right.feature_names
    np.testing.assert_array_equal(left.features, right.features)
    np.testing.assert_array_equal(left.segment_ids, right.segment_ids)
    np.testing.assert_array_equal(left.class_ids, right.class_ids)
    assert list(left.image_ids) == list(right.image_ids)
    np.testing.assert_array_equal(left.target_iou(), right.target_iou())


class TestBatchedExtraction:
    def test_batched_matches_serial(self, metaseg_pipeline, cityscapes_like):
        samples = cityscapes_like.val_samples()
        serial = metaseg_pipeline.extract_dataset(samples)
        for n_ranges in (1, 2, 3, len(samples)):
            parts = [
                metaseg_pipeline.extract_dataset(samples[start:stop], index_offset=start)
                for start, stop in shard_ranges(len(samples), n_ranges)
            ]
            _assert_datasets_identical(serial, MetricsDataset.concatenate(parts))

    def test_streaming_parts_respect_chunk_size(self, metaseg_pipeline, cityscapes_like):
        # A lazy stream is consumed item by item; each range's part holds
        # exactly the images of its range, in order.
        samples = cityscapes_like.val_samples()
        for start, stop in shard_ranges(len(samples), 3):
            part = metaseg_pipeline.extract_dataset(
                iter(samples[start:stop]), index_offset=start
            )
            assert list(dict.fromkeys(part.image_ids)) == [
                sample.image_id for sample in samples[start:stop]
            ]

    def test_index_offset_is_respected(self, metaseg_pipeline, cityscapes_like):
        samples = cityscapes_like.val_samples()
        offset = metaseg_pipeline.extract_dataset(samples[:2], index_offset=5)
        shifted = metaseg_pipeline.extract_dataset(samples[:2])
        assert not np.array_equal(offset.features, shifted.features)
        whole = metaseg_pipeline.extract_dataset(samples)
        tail = metaseg_pipeline.extract_dataset(samples[2:], index_offset=2)
        _assert_datasets_identical(
            tail, whole.subset(np.nonzero(np.isin(whole.image_ids, tail.image_ids))[0])
        )

    def test_no_samples_raises(self, metaseg_pipeline):
        with pytest.raises(ValueError):
            metaseg_pipeline.extract_dataset([])


class TestBatchedDecisionCompare:
    def test_parallel_compare_matches_serial(self, cityscapes_like, xception_network):
        from repro.decision.pipeline import DecisionRuleComparison

        comparison = DecisionRuleComparison(xception_network)
        comparison.fit_priors(cityscapes_like.train_samples())
        samples = cityscapes_like.val_samples()
        serial = comparison.compare(samples)
        ranges = map_ordered(
            lambda bounds: list(comparison.iter_compare_samples(
                samples[bounds[0]:bounds[1]], index_offset=bounds[0]
            )),
            shard_ranges(len(samples), 3),
            max_workers=3,
        )
        parallel, n_samples = comparison.fold_compare_results(chain.from_iterable(ranges))
        assert n_samples == len(samples)
        for rule in serial.per_rule:
            assert (
                serial.per_rule[rule].precision_values
                == parallel.per_rule[rule].precision_values
            )
            assert (
                serial.per_rule[rule].recall_values
                == parallel.per_rule[rule].recall_values
            )
            assert serial.pixel_accuracy[rule] == parallel.pixel_accuracy[rule]


class TestBatchedTimeDynamic:
    @pytest.mark.slow
    def test_parallel_process_dataset_matches_serial(
        self, kitti_like, mobilenet_network, xception_network
    ):
        from repro.timedynamic.pipeline import TimeDynamicPipeline

        pipeline = TimeDynamicPipeline(mobilenet_network, xception_network)
        serial = pipeline.process_dataset(kitti_like)
        parallel = list(chain.from_iterable(map_ordered(
            lambda bounds: pipeline.process_dataset(kitti_like, *bounds),
            shard_ranges(kitti_like.n_sequences, 2),
            max_workers=2,
        )))
        assert len(serial) == len(parallel)
        for left, right in zip(serial, parallel):
            assert left.sequence_id == right.sequence_id
            assert left.n_frames == right.n_frames
            assert left.track_assignments == right.track_assignments
            for frame_left, frame_right in zip(left.frames, right.frames):
                np.testing.assert_array_equal(
                    frame_left.dataset.features, frame_right.dataset.features
                )
                if frame_left.dataset.has_targets:
                    np.testing.assert_array_equal(
                        frame_left.dataset.target_iou(), frame_right.dataset.target_iou()
                    )

    def test_invalid_sequence_range_rejected(self, kitti_like, mobilenet_network, xception_network):
        from repro.timedynamic.pipeline import TimeDynamicPipeline

        pipeline = TimeDynamicPipeline(mobilenet_network, xception_network)
        with pytest.raises(ValueError, match="invalid sequence range"):
            pipeline.process_dataset(kitti_like, 1, kitti_like.n_sequences + 1)
