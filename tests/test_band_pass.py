"""The banded front end of metric extraction and its helper lanes.

:func:`repro.core.heatmaps.field_pass` must be bitwise-identical to the
whole-field seed composition — ``check_probability_field`` + ``argmax`` +
``_reference_dispersion_heatmaps`` — for every band layout, and raise the
same validation errors in the same order.
"""

import multiprocessing
import threading
from unittest import mock

import numpy as np
import pytest

import repro.core.heatmaps as heatmaps_module
from repro.core.heatmaps import _reference_dispersion_heatmaps, field_pass
from repro.core.metrics import SegmentMetricsExtractor
from repro.segmentation.labels import cityscapes_label_space
from repro.utils import lanes
from repro.utils.validation import check_probability_field


def _softmax(seed, height, width, n_classes, dtype=np.float64):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 2.0, size=(height, width, n_classes))
    probs = np.exp(logits)
    probs /= probs.sum(axis=2, keepdims=True)
    return probs.astype(dtype)


def _assert_matches_seed(probs):
    front = field_pass(probs)
    validated = check_probability_field(probs)
    reference = _reference_dispersion_heatmaps(validated)
    assert np.array_equal(front.field, validated)
    assert front.labels.dtype == np.int64
    assert np.array_equal(front.labels, np.argmax(validated, axis=2).astype(np.int64))
    assert np.array_equal(front.pmax, validated.max(axis=2))
    assert set(front.heatmaps) == {"E", "M", "V"}
    for key, expected in reference.items():
        assert np.array_equal(front.heatmaps[key], expected), key


@pytest.fixture
def tiny_bands(monkeypatch):
    """Bands of a few rows on test-sized fields: 3 rows of width 10 × C=5."""
    monkeypatch.setattr(heatmaps_module, "BAND_BYTES", 3 * 10 * 5 * 8)
    monkeypatch.setattr(heatmaps_module, "SPLIT_MIN_BYTES", 0)


class TestBandLayout:
    def test_band_rows_rule(self):
        band_bytes = heatmaps_module.BAND_BYTES
        # At or below the split threshold the field is one band.
        assert heatmaps_module.band_rows(64, 128, 19) == 64
        # 256x512x19 float64 rows are 77,824 bytes: 13 per 1 MiB band.
        assert heatmaps_module.band_rows(256, 512, 19) == band_bytes // (512 * 19 * 8)
        # A row larger than the budget is a band by itself.
        assert heatmaps_module.band_rows(64, 1 << 16, 19) == 1

    @pytest.mark.parametrize(
        "height, width, n_classes",
        [
            (17, 10, 5),   # H not divisible by the 3-row band height
            (2, 10, 5),    # H smaller than one band
            (1, 10, 5),    # a 1-row field
            (12, 10, 2),   # C = 2
            (9, 10, 5),    # H a multiple of the band height
        ],
    )
    def test_split_fields_match_seed(self, tiny_bands, height, width, n_classes):
        _assert_matches_seed(_softmax(height * 100 + n_classes, height, width, n_classes))

    def test_float32_input(self, tiny_bands):
        probs = _softmax(3, 13, 10, 5, dtype=np.float32)
        _assert_matches_seed(probs)
        assert field_pass(probs).field.dtype == np.float64

    def test_fortran_ordered_input(self, tiny_bands):
        _assert_matches_seed(np.asfortranarray(_softmax(4, 13, 10, 5)))

    def test_unsplit_small_field(self):
        _assert_matches_seed(_softmax(5, 64, 128, 19))

    def test_real_band_split_256x512(self):
        _assert_matches_seed(_softmax(6, 256, 512, 19))

    def test_empty_field(self):
        front = field_pass(np.empty((0, 4, 3)))
        assert front.labels.shape == (0, 4)
        assert front.heatmaps["E"].shape == (0, 4)

    def test_heatmaps_only_skips_argmax(self, tiny_bands):
        front = field_pass(_softmax(7, 7, 10, 5), labels=False)
        assert front.labels is None


class TestValidationErrors:
    """Same messages, same order as the whole-field check."""

    @staticmethod
    def _message(fn, probs):
        with pytest.raises(ValueError) as info:
            fn(probs)
        return str(info.value)

    def _assert_same_error(self, probs):
        expected = self._message(check_probability_field, probs)
        assert self._message(field_pass, probs) == expected
        extractor = SegmentMetricsExtractor(
            label_space=cityscapes_label_space(), connectivity=8
        )
        assert self._message(extractor.extract_full, probs) == expected
        return expected

    def test_negative_entries(self, tiny_bands):
        probs = _softmax(8, 17, 10, 5)
        probs[15, 3, 1] = -0.5
        assert "negative" in self._assert_same_error(probs)

    def test_bad_row_sums_report_whole_field_deviation(self, tiny_bands):
        probs = _softmax(9, 17, 10, 5)
        probs[1, 0, :] *= 1.01
        probs[16, 9, :] *= 1.3  # the largest deviation sits in the last band
        message = self._assert_same_error(probs)
        assert "max deviation 3.00e-01" in message

    def test_nan_field(self, tiny_bands):
        probs = _softmax(10, 17, 10, 5)
        probs[4, 4, :] = np.nan
        assert "max deviation nan" in self._assert_same_error(probs)

    def test_inf_field_raises_without_warnings(self, tiny_bands):
        probs = _softmax(11, 17, 10, 5)
        probs[4, 4, 0] = np.inf
        with np.errstate(all="raise"):
            self._assert_same_error(probs)

    def test_negatives_reported_before_row_sums(self, tiny_bands):
        probs = _softmax(12, 17, 10, 5)
        probs[0, 0, :] *= 2.0        # bad sums in the first band
        probs[16, 0, 0] = -0.5       # a negative entry in the last band
        assert "negative" in self._assert_same_error(probs)

    def test_shape_errors_come_first(self):
        assert "3-D" in self._message(field_pass, np.ones((4, 4)))
        assert "at least 2 classes" in self._message(field_pass, -np.ones((4, 4, 1)))

    def test_class_count_mismatch_follows_validation(self):
        extractor = SegmentMetricsExtractor(label_space=cityscapes_label_space())
        good = _softmax(13, 4, 4, 5)
        assert "label space has" in self._message(extractor.extract_full, good)
        bad = good.copy()
        bad[0, 0, 0] = -1.0
        assert "negative" in self._message(extractor.extract_full, bad)


class TestLanes:
    def test_every_band_runs_once(self):
        seen = []
        lock = threading.Lock()

        def band(index):
            with lock:
                seen.append(index)

        lanes.run_bands(50, band)
        assert sorted(seen) == list(range(50))

    def test_band_error_reaches_the_caller(self):
        def band(index):
            if index == 3:
                raise KeyError("band 3")

        with pytest.raises(KeyError, match="band 3"):
            lanes.run_bands(8, band)

    def test_single_core_runs_bands_in_order(self):
        seen = []
        with mock.patch.object(lanes, "_helpers", lambda: (None, 0)):
            lanes.run_bands(5, seen.append)
        assert seen == [0, 1, 2, 3, 4]

    def test_concurrent_callers_share_the_pool(self, tiny_bands):
        fields = [_softmax(20 + index, 31, 10, 5) for index in range(6)]
        expected = [field_pass(field) for field in fields]
        results = [None] * len(fields)

        def worker(index):
            for _ in range(5):
                results[index] = field_pass(fields[index])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(fields))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for got, want in zip(results, expected):
            assert np.array_equal(got.labels, want.labels)
            for key in ("E", "M", "V"):
                assert np.array_equal(got.heatmaps[key], want.heatmaps[key])


def _extract_in_child(probs, queue):
    extractor = SegmentMetricsExtractor(label_space=cityscapes_label_space())
    dataset = extractor.extract_full(probs).dataset
    pool = lanes._POOL
    queue.put((dataset.features, pool is not None and pool[0] == multiprocessing.current_process().pid))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_forked_child_rebuilds_the_pool_and_matches_the_parent():
    probs = _softmax(30, 256, 512, 19)
    extractor = SegmentMetricsExtractor(label_space=cityscapes_label_space())
    parent_features = extractor.extract_full(probs).dataset.features  # pool in use
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_extract_in_child, args=(probs, queue))
    child.start()
    child_features, child_owns_pool = queue.get(timeout=120)
    child.join(timeout=60)
    assert child.exitcode == 0
    assert np.array_equal(child_features, parent_features)
    assert child_owns_pool
