"""CT pipeline: HU windowing, slice stacking/sampling, augmentation,
thresholding, connected components vs a flood-fill oracle, bounding boxes,
the two-stage merge, and the synthetic phantoms."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fednet import harness
from fednet.config import TrainConfig
from fednet.pipeline import (Bbox3, EmptyMaskError, bbox_of_mask,
                             connected_components_3d, flip_augment,
                             hierarchical_postprocess, hu_window_normalize,
                             largest_component, sample_slices,
                             stack_adjacent_slices, threshold_mask)
from fednet.synth import synth_generate

from oracles import flood_fill_labels

RNG = np.random.default_rng(13)


class TestHuWindowNormalize:
    @pytest.mark.parametrize("hu,expected", [
        (-200, 0.0), (250, 1.0), (-300, 0.0), (400, 1.0), (25, 0.5), (-1000, 0.0),
    ])
    def test_anchors(self, hu, expected):
        out = hu_window_normalize(np.array([[[hu]]], dtype=np.int16))
        assert out[0, 0, 0] == pytest.approx(expected, abs=1e-7)

    def test_output_range_and_dtype(self):
        vol = RNG.integers(-2000, 3000, (4, 5, 6)).astype(np.int16)
        out = hu_window_normalize(vol)
        assert out.dtype == np.float32
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_every_int16_matches_the_window_formula_bytewise(self):
        lo, hi = -200.0, 250.0
        hu = np.arange(-2 ** 15, 2 ** 15, dtype=np.int16).reshape(16, 64, 64)
        out = hu_window_normalize(hu)
        expected = (np.clip(np.asarray(hu, dtype=np.float32), lo, hi) - lo) / (hi - lo)
        assert out.dtype == np.float32 and expected.dtype == np.float32
        assert out.tobytes() == expected.tobytes()

    def test_float32_input_left_unchanged(self):
        vol = RNG.uniform(-1000, 1000, (3, 4, 5)).astype(np.float32)
        before = vol.copy()
        out = hu_window_normalize(vol)
        assert out is not vol and not np.shares_memory(out, vol)
        assert vol.tobytes() == before.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-1500, 1500), st.integers(0, 500))
    def test_monotone(self, hu, step):
        lo = hu_window_normalize(np.array([[[hu]]], dtype=np.float32))
        hi = hu_window_normalize(np.array([[[hu + step]]], dtype=np.float32))
        assert hi[0, 0, 0] >= lo[0, 0, 0]


class TestStackAdjacentSlices:
    def test_bottom_edge_replicates(self):
        vol = RNG.uniform(size=(4, 3, 3)).astype(np.float32)
        out = stack_adjacent_slices(vol, 0)
        np.testing.assert_array_equal(out[0], vol[0])
        np.testing.assert_array_equal(out[1], vol[0])
        np.testing.assert_array_equal(out[2], vol[1])

    def test_interior_slices_exact(self):
        vol = RNG.uniform(size=(5, 2, 2)).astype(np.float32)
        out = stack_adjacent_slices(vol, 2)
        np.testing.assert_array_equal(out, vol[1:4])

    def test_single_slice_volume_replicates_everywhere(self):
        vol = RNG.uniform(size=(1, 3, 3)).astype(np.float32)
        out = stack_adjacent_slices(vol, 0)
        for c in range(3):
            np.testing.assert_array_equal(out[c], vol[0])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            stack_adjacent_slices(np.zeros((3, 2, 2)), 3)

    def test_index_array_stacks_each_slice(self):
        vol = RNG.uniform(size=(5, 2, 3)).astype(np.float32)
        z = np.array([4, 0, 2, 2, 1])
        out = stack_adjacent_slices(vol, z)
        assert out.shape == (5, 3, 2, 3)
        assert out.tobytes() == np.stack([stack_adjacent_slices(vol, k) for k in z]).tobytes()
        assert stack_adjacent_slices(vol, np.array([], dtype=np.intp)).shape == (0, 3, 2, 3)

    @pytest.mark.parametrize("seed", range(8))
    def test_windowing_commutes_with_stacking_and_flipping(self, seed):
        # training and inference window only the stacked network input:
        # windowing is elementwise, so it gives the bytes of stacking from a
        # CT windowed whole
        rng = np.random.default_rng(seed)
        nz = int(rng.integers(1, 9))
        ct = rng.integers(-2 ** 15, 2 ** 15, (nz, 4, 6), dtype=np.int16)
        ct.flat[rng.choice(ct.size, 4, replace=False)] = [-32768, 32767, -200, 250]
        norm = hu_window_normalize(ct)
        z = np.concatenate(([0, nz - 1], rng.integers(0, nz, 6)))
        assert (hu_window_normalize(stack_adjacent_slices(ct, z)).tobytes()
                == stack_adjacent_slices(norm, z).tobytes())
        # a training batch: each slice stacked and flipped, then the batch
        # stacked; both volumes see the same flip draws
        flips = rng.random(2 * z.size)
        target = np.zeros((1, 4, 6), dtype=np.uint8)
        batches = [np.stack([flip_augment(stack_adjacent_slices(volume, k), target, draws)[0]
                             for k in z])
                   for volume, draws in ((ct, _FixedRng(flips)), (norm, _FixedRng(flips)))]
        assert hu_window_normalize(batches[0]).tobytes() == batches[1].tobytes()

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_index_array_out_of_range_rejected(self, bad):
        # a negative index would otherwise wrap, and clamping would hide it
        with pytest.raises(IndexError, match=f"slice index {bad} out of range for nz=5"):
            stack_adjacent_slices(np.zeros((5, 2, 2)), np.array([0, 3, bad, 1]))


class TestSampleSlices:
    def test_all_positive_kept_at_probability_one(self):
        assert sample_slices(np.ones(20), seed=0).tolist() == list(range(20))

    def test_zero_probabilities_keep_nothing(self):
        assert sample_slices(np.zeros(20), seed=0).size == 0

    def test_deterministic_per_seed(self):
        keep_p = np.where(np.arange(20) % 2 == 0, 0.9, 0.1)
        a = sample_slices(keep_p, seed=9).tolist()
        b = sample_slices(keep_p, seed=9).tolist()
        c = sample_slices(keep_p, seed=10).tolist()
        assert a == b
        assert a == sorted(a)
        assert a != c

    def test_eligibility_mask_restricts_and_keeps_draw_stream(self):
        eligible = np.zeros(20, dtype=bool)
        eligible[5:10] = True
        assert sample_slices(eligible.astype(float), seed=3).tolist() == list(range(5, 10))
        # an ineligible slice, of probability 0, still uses up its draw: the
        # kept eligible slices are those kept without the mask
        keep_p = np.where(np.arange(20) % 2 == 0, 0.9, 0.1)
        full = sample_slices(keep_p, seed=3)
        masked = sample_slices(np.where(eligible, keep_p, 0.0), seed=3)
        assert masked.tolist() == [z for z in full.tolist() if eligible[z]]

    def test_bernoulli_statistics(self):
        nz = 10000
        for p in (0.9, 0.1):
            kept = sample_slices(np.full(nz, p), seed=1234).size
            assert abs(kept / nz - p) <= 0.01

    def test_channel_structure(self):
        # training stacks each drawn index of the int16 CT with its
        # neighbours, in draw order
        image = RNG.integers(-1000, 1000, (20, 4, 4)).astype(np.int16)
        target = np.zeros((20, 4, 4), dtype=np.uint8)
        target[::2, 1, 1] = 1
        cfg = TrainConfig(seed=0, p_pos=1.0, p_neg=1.0)
        prepared = [(image, target, np.ones(20, dtype=bool))]
        stream = harness._sample_stream(prepared, cfg, _FixedRng([0.9] * 8))  # no flips
        samples = [next(stream) for _ in range(4)]
        sample_image, sample_target = samples[3]
        np.testing.assert_array_equal(sample_image, stack_adjacent_slices(image, 3))
        np.testing.assert_array_equal(sample_target, target[3][None])
        assert sample_target.shape == (1, 4, 4)

    def test_matches_one_scalar_draw_per_slice(self):
        # the vectorized draw consumes the stream as one rng.random() per
        # slice in ascending z, the order the sampling has always used
        keep_p = np.where(np.arange(30) % 3 == 0, 0.7, 0.2)
        keep_p[np.arange(30) % 4 == 1] = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            expected = [z for z in range(30) if rng.random() < keep_p[z]]
            assert sample_slices(keep_p, seed).tolist() == expected


class _FixedRng:
    """Deterministic stand-in for a Generator: yields preset uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestFlipAugment:
    def _pair(self):
        image = RNG.uniform(size=(3, 4, 5)).astype(np.float32)
        target = (RNG.uniform(size=(1, 4, 5)) > 0.5).astype(np.float32)
        return image, target

    def test_double_flip_is_identity(self):
        image, target = self._pair()
        once = flip_augment(image, target, _FixedRng([0.0, 0.0]))      # flip both axes
        twice = flip_augment(*once, _FixedRng([0.0, 0.0]))
        np.testing.assert_array_equal(twice[0], image)
        np.testing.assert_array_equal(twice[1], target)

    def test_image_and_target_flip_together(self):
        image, target = self._pair()
        flipped = flip_augment(image, target, _FixedRng([0.3, 0.8]))   # flip W only
        np.testing.assert_array_equal(flipped[0], np.flip(image, axis=2))
        np.testing.assert_array_equal(flipped[1], np.flip(target, axis=2))

    def test_no_flip_path(self):
        image, target = self._pair()
        out_image, out_target = flip_augment(image, target, _FixedRng([0.9, 0.9]))
        np.testing.assert_array_equal(out_image, image)
        np.testing.assert_array_equal(out_target, target)

    def test_seeded_generator_reproducible(self):
        image, target = self._pair()
        a = flip_augment(image, target, np.random.default_rng(5))
        b = flip_augment(image, target, np.random.default_rng(5))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestThresholdMask:
    def test_ge_convention(self):
        out = threshold_mask(np.array([0.4, 0.5, 0.6]), 0.5)
        np.testing.assert_array_equal(out, [0, 1, 1])

    def test_zero_threshold_keeps_all(self):
        out = threshold_mask(RNG.uniform(size=8), 0.0)
        assert out.all()

    def test_above_one_threshold_keeps_none(self):
        out = threshold_mask(RNG.uniform(size=8), np.nextafter(1.0, 2.0))
        assert not out.any()


class TestConnectedComponents:
    def test_single_voxel(self):
        mask = np.zeros((3, 3, 3), dtype=np.uint8)
        mask[1, 1, 1] = 1
        labels, sizes = connected_components_3d(mask)
        assert labels[1, 1, 1] == 1
        np.testing.assert_array_equal(sizes, [1])

    def test_edge_touching_voxels_split_under_6_connectivity(self):
        mask = np.zeros((1, 2, 2), dtype=np.uint8)
        mask[0, 0, 0] = mask[0, 1, 1] = 1  # share an edge, not a face
        _, sizes6 = connected_components_3d(mask, connectivity=6)
        assert len(sizes6) == 2
        _, sizes26 = connected_components_3d(mask, connectivity=26)
        assert len(sizes26) == 1

    def test_labels_in_discovery_order(self):
        mask = np.zeros((1, 1, 5), dtype=np.uint8)
        mask[0, 0, 4] = 1
        mask[0, 0, 0] = 1
        mask[0, 0, 2] = 1
        labels, sizes = connected_components_3d(mask)
        assert labels[0, 0, 0] == 1 and labels[0, 0, 2] == 2 and labels[0, 0, 4] == 3
        np.testing.assert_array_equal(sizes, [1, 1, 1])

    @staticmethod
    def _oracle_inputs():
        rng = np.random.default_rng(99)
        for _ in range(25):
            yield (rng.uniform(size=(16, 16, 16)) > 0.72).astype(np.uint8)
        # extent 1 on each axis, and non-cubic shapes
        for shape in [(1, 9, 11), (7, 1, 11), (7, 9, 1), (1, 1, 13), (1, 1, 1),
                      (5, 9, 13), (11, 4, 7), (3, 17, 2)]:
            yield (rng.uniform(size=shape) > 0.5).astype(np.uint8)
        yield np.zeros((4, 5, 6), dtype=np.uint8)
        yield np.ones((4, 5, 6), dtype=np.uint8)
        # the first and last voxels alone: no background before the first run
        # or after the last
        ends = np.zeros((4, 5, 6), dtype=np.uint8)
        ends[0, 0, 0] = ends[-1, -1, -1] = 1
        yield ends
        for density in (0.1, 0.3, 0.5, 0.7, 0.9):
            yield (rng.uniform(size=(9, 10, 11)) < density).astype(np.uint8)
        # diagonal chains, across z and y and beyond, that only 26-connectivity joins
        chains = np.zeros((8, 8, 8), dtype=np.uint8)
        for i in range(8):
            chains[i, i, 1] = 1          # z-y diagonal
            chains[i, 7 - i, 3] = 1      # z-y anti-diagonal
            chains[i, 5, i] = 1          # z-x diagonal
            chains[0, i, 7 - i] = 1      # y-x anti-diagonal
            chains[i, i, i] = 1          # space diagonal
        yield chains

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_matches_flood_fill_oracle(self, connectivity):
        for mask in self._oracle_inputs():
            labels, sizes = connected_components_3d(mask, connectivity)
            expected = flood_fill_labels(mask, connectivity)
            assert labels.dtype == np.int32 and sizes.dtype == np.int64
            np.testing.assert_array_equal(labels, expected)
            np.testing.assert_array_equal(
                sizes, np.bincount(expected.ravel())[1:])

    def test_partition_covers_foreground_exactly(self):
        mask = (RNG.uniform(size=(8, 8, 8)) > 0.6).astype(np.uint8)
        labels, sizes = connected_components_3d(mask)
        np.testing.assert_array_equal(labels > 0, mask.astype(bool))
        assert int(sizes.sum()) == int(mask.sum())

    def test_invalid_connectivity_rejected(self):
        with pytest.raises(ValueError, match="connectivity"):
            connected_components_3d(np.zeros((2, 2, 2)), connectivity=18)

    @pytest.mark.parametrize("fn", [connected_components_3d, largest_component, bbox_of_mask])
    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4, 5), ()], ids=["2-d", "4-d", "0-d"])
    def test_mask_not_3d_rejected(self, fn, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            fn(np.ones(shape, dtype=np.uint8))

    @pytest.mark.parametrize("connectivity", [6, 26])
    @pytest.mark.parametrize("foreground", [np.uint8(2), True, np.float32(0.5)],
                             ids=["uint8-2", "bool", "float32-0.5"])
    def test_any_nonzero_voxel_is_foreground(self, connectivity, foreground):
        for mask in self._oracle_inputs():
            other = np.where(mask.astype(bool), foreground, np.zeros((), type(foreground)))
            labels, sizes = connected_components_3d(other, connectivity)
            expected_labels, expected_sizes = connected_components_3d(mask, connectivity)
            np.testing.assert_array_equal(labels, expected_labels)
            np.testing.assert_array_equal(sizes, expected_sizes)
            kept = largest_component(other, connectivity)
            assert kept.dtype == np.uint8
            np.testing.assert_array_equal(kept, largest_component(mask, connectivity))
            if mask.any():
                assert bbox_of_mask(other) == bbox_of_mask(mask)


class TestLargestComponent:
    def test_single_component_unchanged(self):
        mask = np.zeros((3, 3, 3), dtype=np.uint8)
        mask[1, 1, :] = 1
        np.testing.assert_array_equal(largest_component(mask), mask)

    def test_keeps_biggest(self):
        mask = np.zeros((1, 1, 9), dtype=np.uint8)
        mask[0, 0, 0:5] = 1
        mask[0, 0, 6:9] = 1
        out = largest_component(mask)
        assert out[0, 0, 0:5].all() and not out[0, 0, 6:9].any()

    def test_tie_keeps_earliest_discovered(self):
        mask = np.zeros((1, 1, 5), dtype=np.uint8)
        mask[0, 0, 0:2] = 1
        mask[0, 0, 3:5] = 1
        out = largest_component(mask)
        assert out[0, 0, 0:2].all() and not out[0, 0, 3:5].any()

    def test_empty_stays_empty(self):
        out = largest_component(np.zeros((2, 2, 2), dtype=np.uint8))
        assert out.shape == (2, 2, 2) and not out.any()

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_matches_flood_fill_oracle(self, connectivity):
        for mask in TestConnectedComponents._oracle_inputs():
            expected = flood_fill_labels(mask, connectivity)
            sizes = np.bincount(expected.ravel())[1:]
            out = largest_component(mask, connectivity)
            assert out.dtype == np.uint8 and out.shape == mask.shape
            if sizes.size == 0:
                assert not out.any()
                continue
            # np.argmax takes the first of equal sizes: the earliest label
            keep = int(np.argmax(sizes)) + 1
            np.testing.assert_array_equal(out, (expected == keep).astype(np.uint8))


class TestBbox:
    def test_single_voxel_degenerate_box(self):
        mask = np.zeros((4, 5, 6), dtype=np.uint8)
        mask[2, 3, 4] = 1
        box = bbox_of_mask(mask)
        assert box.lo == (2, 3, 4) and box.hi == (2, 3, 4)

    def test_two_opposite_corners_span_volume(self):
        mask = np.zeros((3, 4, 5), dtype=np.uint8)
        mask[0, 0, 0] = mask[2, 3, 4] = 1
        box = bbox_of_mask(mask)
        assert box.lo == (0, 0, 0) and box.hi == (2, 3, 4)

    def test_matches_scan_oracle(self):
        mask = (RNG.uniform(size=(6, 7, 8)) > 0.8).astype(np.uint8)
        if not mask.any():
            mask[3, 3, 3] = 1
        box = bbox_of_mask(mask)
        los, his = [], []
        for axis_points in zip(*[(z, y, x) for z in range(6) for y in range(7)
                                 for x in range(8) if mask[z, y, x]]):
            los.append(min(axis_points))
            his.append(max(axis_points))
        assert box.lo == tuple(los) and box.hi == tuple(his)

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyMaskError):
            bbox_of_mask(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_contains_mask(self):
        box = Bbox3((1, 1, 1), (2, 2, 2))
        inside = np.zeros((4, 4, 4), dtype=np.uint8)
        inside[1, 2, 2] = 1
        assert box.contains_mask(inside)
        inside[0, 0, 0] = 1
        assert not box.contains_mask(inside)

    def test_invalid_corners_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            Bbox3((2, 0, 0), (1, 3, 3))

    @pytest.mark.parametrize("lo,hi", [((0,), (1,)), ((0, 0), (1, 1)), ((0, 0, 0, 0), (1, 1, 1, 1)),
                                       ((0, 0, 0), (1, 1)), ((0, 0, 0), (1.0, 1, 1)),
                                       ([0, 0, 0], (1, 1, 1))])
    def test_corners_must_be_three_ints(self, lo, hi):
        with pytest.raises(ValueError, match="three ints"):
            Bbox3(lo, hi)


class TestHierarchicalPostprocess:
    def test_lesions_outside_box_erased(self):
        liver = np.zeros((6, 6, 6), dtype=np.uint8)
        liver[2:4, 2:4, 2:4] = 1
        lesion = np.zeros((6, 6, 6), dtype=np.uint8)
        lesion[2, 2, 2] = 1   # inside box
        lesion[5, 5, 5] = 1   # outside box
        final = hierarchical_postprocess(largest_component(liver), lesion)
        assert final[2, 2, 2] == 1 and final[5, 5, 5] == 0

    def test_empty_liver_short_circuits(self):
        lesion = np.ones((4, 4, 4), dtype=np.uint8)
        liver = np.zeros((4, 4, 4), dtype=np.uint8)
        final = hierarchical_postprocess(largest_component(liver), lesion)
        assert not final.any()

    def test_matches_step_by_step_recomputation(self):
        rng = np.random.default_rng(55)
        liver = rng.uniform(size=(8, 8, 8)).astype(np.float32)
        lesion = threshold_mask(rng.uniform(size=(8, 8, 8)).astype(np.float32), 0.3)
        liver_mask = largest_component(threshold_mask(liver, 0.5))
        final = hierarchical_postprocess(liver_mask, lesion)
        assert final.dtype == np.uint8
        expected = np.zeros_like(final)
        if liver_mask.any():
            box = bbox_of_mask(liver_mask)
            sl = box.slices()
            expected[sl] = lesion[sl]
        np.testing.assert_array_equal(final, expected)
        # a bool lesion mask merges to the same bytes
        assert hierarchical_postprocess(liver_mask, lesion.view(bool)).tobytes() == final.tobytes()

    def test_output_contained_in_liver_bbox(self):
        rng = np.random.default_rng(56)
        liver = rng.uniform(size=(8, 8, 8)).astype(np.float32)
        lesion = rng.uniform(size=(8, 8, 8)).astype(np.float32)
        liver_mask = largest_component(threshold_mask(liver, 0.5))
        final = hierarchical_postprocess(liver_mask, threshold_mask(lesion, 0.3))
        if liver_mask.any():
            assert bbox_of_mask(liver_mask).contains_mask(final)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dims mismatch"):
            hierarchical_postprocess(np.zeros((2, 2, 2), dtype=np.uint8),
                                     np.zeros((2, 2, 3), dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_lesion_that_is_not_a_mask_rejected(self, dtype):
        # probabilities cast into the uint8 result would become 0 below 1
        liver = np.ones((2, 2, 2), dtype=np.uint8)
        lesion = np.full((2, 2, 2), 0.9).astype(dtype)
        with pytest.raises(ValueError) as info:
            hierarchical_postprocess(liver, lesion)
        assert str(info.value) == (f"lesion mask must be bool or uint8, "
                                   f"got {np.dtype(dtype)}")


class TestSynthGenerate:
    def test_lesions_strictly_inside_liver(self):
        for _, seg in synth_generate(31, 3, (64, 32, 32)):
            lesion = seg.voxels == 2
            liver_or_lesion = seg.voxels >= 1
            assert not lesion.any() or liver_or_lesion[lesion].all()
            # every lesion voxel's 6-neighborhood stays inside the organ
            if lesion.any():
                padded = np.pad(liver_or_lesion, 1)
                for dz, dy, dx in [(-1, 0, 0), (1, 0, 0), (0, -1, 0),
                                   (0, 1, 0), (0, 0, -1), (0, 0, 1)]:
                    shifted = padded[1 + dz:lesion.shape[0] + 1 + dz,
                                     1 + dy:lesion.shape[1] + 1 + dy,
                                     1 + dx:lesion.shape[2] + 1 + dx]
                    assert shifted[lesion].all()

    def test_deterministic_per_seed(self):
        a = synth_generate(7, 2, (32, 32, 32))
        b = synth_generate(7, 2, (32, 32, 32))
        for (ct_a, seg_a), (ct_b, seg_b) in zip(a, b):
            assert ct_a.voxels.tobytes() == ct_b.voxels.tobytes()
            assert seg_a.voxels.tobytes() == seg_b.voxels.tobytes()
        c = synth_generate(8, 2, (32, 32, 32))
        assert a[0][0].voxels.tobytes() != c[0][0].voxels.tobytes()

    def test_label_set_and_dims(self):
        ct, seg = synth_generate(3, 1, (64, 32, 36))[0]
        assert ct.voxels.shape == (36, 32, 64)
        assert ct.voxels.dtype == np.int16
        assert seg.voxels.dtype == np.uint8
        assert set(np.unique(seg.voxels)) <= {0, 1, 2}
        assert (seg.voxels == 1).sum() > 0

    def test_background_statistics(self):
        ct, seg = synth_generate(17, 1, (64, 64, 48))[0]
        background = ct.voxels[seg.voxels == 0].astype(np.float64)
        assert abs(background.mean() + 100.0) <= 10.0
        assert 20.0 <= background.std() <= 40.0

    def test_small_dims_rejected(self):
        with pytest.raises(ValueError, match=">= 32"):
            synth_generate(0, 1, (31, 64, 64))

    def test_non_multiple_inplane_dims_rejected(self):
        with pytest.raises(ValueError, match="multiples of 32"):
            synth_generate(0, 1, (48, 48, 32))
