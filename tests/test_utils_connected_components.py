"""Tests for repro.utils.connected_components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.utils.connected_components import (
    component_sizes,
    component_slices,
    connected_components,
    relabel_sequential,
)


class TestConnectedComponents:
    def test_single_uniform_region(self):
        labels = np.zeros((4, 4), dtype=int)
        components, count = connected_components(labels)
        assert count == 1
        assert np.all(components == 1)

    def test_two_classes_two_components(self):
        labels = np.zeros((4, 6), dtype=int)
        labels[:, 3:] = 1
        components, count = connected_components(labels)
        assert count == 2
        assert components[0, 0] != components[0, 5]

    def test_same_class_disconnected_regions(self):
        labels = np.zeros((5, 5), dtype=int)
        labels[0, 0] = 1
        labels[4, 4] = 1
        components, count = connected_components(labels, connectivity=4)
        assert count == 3  # background class 0 plus two isolated class-1 pixels

    def test_background_ignored(self):
        labels = np.full((3, 3), -1)
        labels[1, 1] = 2
        components, count = connected_components(labels, background=-1)
        assert count == 1
        assert components[0, 0] == 0
        assert components[1, 1] == 1

    def test_diagonal_connectivity_difference(self):
        labels = np.zeros((2, 2), dtype=int)
        labels[0, 0] = 1
        labels[1, 1] = 1
        _, count4 = connected_components(labels, connectivity=4)
        _, count8 = connected_components(labels, connectivity=8)
        # 4-connectivity: both diagonal pairs (class 1 and class 0) stay split
        # into two components each; 8-connectivity merges each pair.
        assert count4 == 4
        assert count8 == 2

    def test_ids_are_dense_and_start_at_one(self):
        labels = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        components, count = connected_components(labels, connectivity=4)
        present = np.unique(components)
        assert present.min() == 1
        assert present.max() == count

    def test_invalid_connectivity(self):
        with pytest.raises(ValueError):
            connected_components(np.zeros((2, 2), dtype=int), connectivity=6)

    def test_invalid_engine(self):
        with pytest.raises(ValueError):
            connected_components(np.zeros((2, 2), dtype=int), engine="magic")

    def test_engines_agree(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=(20, 24))
        for connectivity in (4, 8):
            scipy_out, scipy_count = connected_components(
                labels, connectivity=connectivity, engine="scipy"
            )
            uf_out, uf_count = connected_components(
                labels, connectivity=connectivity, engine="unionfind"
            )
            assert scipy_count == uf_count
            np.testing.assert_array_equal(scipy_out, uf_out)

    def test_all_background(self):
        labels = np.full((4, 4), -1)
        components, count = connected_components(labels)
        assert count == 0
        assert np.all(components == 0)


def _assert_engines_agree(labels, background=-1):
    for connectivity in (4, 8):
        scipy_out, scipy_count = connected_components(
            labels, connectivity=connectivity, background=background, engine="scipy"
        )
        uf_out, uf_count = connected_components(
            labels, connectivity=connectivity, background=background, engine="unionfind"
        )
        assert scipy_count == uf_count
        np.testing.assert_array_equal(scipy_out, uf_out)


class TestBoxedLabellingEdgeCases:
    """The per-class bounding-box labelling against union-find."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_label_values(self, seed):
        # {-1, 0, 10**6}: the shifted map would need a million empty slots.
        rng = np.random.default_rng(seed)
        labels = rng.choice(np.array([-1, 0, 10**6]), size=(23, 17))
        _assert_engines_agree(labels)
        _assert_engines_agree(labels, background=10**6)

    def test_large_but_dense_value_range(self):
        rng = np.random.default_rng(5)
        labels = rng.choice(np.array([-1, 3, 700, 1500]), size=(20, 20))
        _assert_engines_agree(labels)

    def test_single_class(self):
        _assert_engines_agree(np.full((6, 9), 4))

    def test_single_class_with_background_holes(self):
        labels = np.full((7, 7), 2)
        labels[::2, 3] = -1
        labels[3, :] = -1
        _assert_engines_agree(labels)

    def test_all_background_both_engines(self):
        _assert_engines_agree(np.full((5, 3), -1))
        _assert_engines_agree(np.full((5, 3), 7), background=7)

    @pytest.mark.parametrize("shape", [(1, 31), (31, 1), (1, 1)])
    def test_thin_maps(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        _assert_engines_agree(rng.integers(-1, 3, size=shape))

    def test_nested_class_boxes(self):
        # A ring of class 1 around class 2 around class 1 again: boxes overlap.
        labels = np.ones((9, 9), dtype=int)
        labels[2:7, 2:7] = 2
        labels[4, 4] = 1
        _assert_engines_agree(labels)


class TestComponentSizes:
    def test_sizes_sum_to_pixels(self):
        labels = np.array([[0, 0, 1], [0, 1, 1]])
        components, count = connected_components(labels)
        sizes = component_sizes(components)
        assert sizes[1:].sum() == labels.size
        assert len(sizes) == count + 1

    def test_empty_input(self):
        assert component_sizes(np.zeros((0,), dtype=int)).tolist() == [0]


class TestRelabelSequential:
    def test_dense_relabelling(self):
        components = np.array([[0, 5], [5, 9]])
        out, count = relabel_sequential(components)
        assert count == 2
        assert set(np.unique(out)) == {0, 1, 2}

    def test_preserves_partition(self):
        components = np.array([[3, 3, 7], [7, 7, 3]])
        out, _ = relabel_sequential(components)
        assert (out[0, 0] == out[0, 1]) and (out[0, 2] == out[1, 0])
        assert out[0, 0] != out[0, 2]


class TestComponentSlices:
    def test_bounding_boxes(self):
        labels = np.zeros((6, 6), dtype=int)
        labels[2:4, 3:6] = 1
        components, _ = connected_components(labels)
        boxes = component_slices(components)
        # There are two components; find the one covering the class-1 block.
        block_id = components[2, 3]
        rows_slice, cols_slice = boxes[block_id]
        assert (rows_slice.start, rows_slice.stop) == (2, 4)
        assert (cols_slice.start, cols_slice.stop) == (3, 6)

    def test_empty_components(self):
        assert component_slices(np.zeros((3, 3), dtype=np.int64)) == {}


@given(
    labels=arrays(
        dtype=np.int64,
        shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
        elements=st.integers(min_value=-1, max_value=3),
    ),
    connectivity=st.sampled_from([4, 8]),
)
@settings(max_examples=40, deadline=None)
def test_property_components_partition_foreground(labels, connectivity):
    """Every non-background pixel gets exactly one id; components are class-pure."""
    components, count = connected_components(labels, connectivity=connectivity)
    foreground = labels != -1
    assert np.all((components > 0) == foreground)
    for comp_id in range(1, count + 1):
        values = np.unique(labels[components == comp_id])
        assert values.size == 1


@given(
    labels=arrays(
        dtype=np.int64,
        shape=st.tuples(st.integers(2, 10), st.integers(2, 10)),
        elements=st.integers(min_value=0, max_value=2),
    )
)
@settings(max_examples=25, deadline=None)
def test_property_engines_equivalent(labels):
    """The scipy fast path and the union-find fallback agree exactly."""
    a, count_a = connected_components(labels, engine="scipy")
    b, count_b = connected_components(labels, engine="unionfind")
    assert count_a == count_b
    np.testing.assert_array_equal(a, b)
