"""Volumes, pooling, window extraction, summed-area tables, and moving pyramids."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiloseg.voxel import (
    LabelVolume,
    VoxelVolume,
    _pooled_array,
    average_pool,
    build_pyramid,
    extract_window,
    integral_volume,
    max_pool,
)


def naive_average_pool(arr, factor):
    """Plain-loop reference: zero-pad up to a multiple, then mean each cube."""
    dims = [-(-n // factor) for n in arr.shape]
    out = np.zeros(dims, dtype=np.float64)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                total = 0.0
                for a in range(factor):
                    for b in range(factor):
                        for c in range(factor):
                            x, y, z = i * factor + a, j * factor + b, k * factor + c
                            if x < arr.shape[0] and y < arr.shape[1] and z < arr.shape[2]:
                                total += float(arr[x, y, z])
                out[i, j, k] = total / factor**3
    return out.astype(np.float32)


def naive_max_pool(arr, factor):
    dims = [-(-n // factor) for n in arr.shape]
    out = np.zeros(dims, dtype=arr.dtype)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                block = arr[
                    i * factor : (i + 1) * factor,
                    j * factor : (j + 1) * factor,
                    k * factor : (k + 1) * factor,
                ]
                out[i, j, k] = block.max()
    return out


def naive_window(arr, origin, w):
    out = np.zeros((w, w, w), dtype=arr.dtype)
    for i in range(w):
        for j in range(w):
            for k in range(w):
                x, y, z = origin[0] + i, origin[1] + j, origin[2] + k
                if 0 <= x < arr.shape[0] and 0 <= y < arr.shape[1] and 0 <= z < arr.shape[2]:
                    out[i, j, k] = arr[x, y, z]
    return out


def naive_pyramid_level(arr, center, w, factor):
    """Plain-loop reference for a pyramid level of any depth: each volume voxel
    adds its value to the factor-cube of the level that holds it, so the cube
    outside the volume (zeros) is never materialized."""
    origin = [c - w * factor // 2 for c in center]
    out = np.zeros((w, w, w), dtype=np.float64)
    for x in range(arr.shape[0]):
        for y in range(arr.shape[1]):
            for z in range(arr.shape[2]):
                q = [(v - o) // factor for v, o in zip((x, y, z), origin)]
                if all(0 <= i < w for i in q):
                    out[q[0], q[1], q[2]] += float(arr[x, y, z])
    return (out / factor**3).astype(np.float32)


class TestVolumeTypes:
    def test_volume_casts_and_checks_range(self):
        v = VoxelVolume(np.ones((2, 3, 4), dtype=np.float64) * 0.5)
        assert v.data.dtype == np.float32
        assert v.dims == (2, 3, 4)

    def test_volume_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            VoxelVolume(np.full((2, 2, 2), 1.5))
        with pytest.raises(ValueError):
            VoxelVolume(np.full((2, 2, 2), -0.1))

    def test_volume_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            VoxelVolume(np.zeros((4, 4)))

    def test_labels_must_be_binary(self):
        LabelVolume(np.ones((2, 2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            LabelVolume(np.full((2, 2, 2), 2, dtype=np.uint8))


class TestAveragePool:
    def test_matches_naive_oracle(self, rng):
        for _ in range(40):
            dims = tuple(rng.integers(2, 13, size=3))
            factor = int(rng.integers(1, 5))
            arr = rng.random(dims, dtype=np.float32)
            got = average_pool(VoxelVolume(arr), factor).data
            want = naive_average_pool(arr, factor)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)

    def test_factor_one_is_identity(self, rng):
        arr = rng.random((4, 5, 6), dtype=np.float32)
        np.testing.assert_array_equal(average_pool(VoxelVolume(arr), 1).data, arr)

    def test_linearity_in_scalar(self, rng):
        arr = rng.random((8, 8, 8), dtype=np.float32)
        a = 0.37
        lhs = average_pool(VoxelVolume(a * arr), 2).data
        rhs = a * average_pool(VoxelVolume(arr), 2).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            average_pool(VoxelVolume(np.zeros((4, 4, 4))), 0)


class TestMaxPool:
    def test_matches_naive_oracle(self, rng):
        for _ in range(40):
            dims = tuple(rng.integers(2, 13, size=3))
            factor = int(rng.integers(1, 5))
            arr = (rng.random(dims) > 0.7).astype(np.uint8)
            got = max_pool(LabelVolume(arr), factor).data
            np.testing.assert_array_equal(got, naive_max_pool(arr, factor))

    def test_composes_on_divisible_dims(self, rng):
        arr = (rng.random((12, 12, 12)) > 0.8).astype(np.uint8)
        once = max_pool(LabelVolume(arr), 6).data
        twice = max_pool(max_pool(LabelVolume(arr), 2), 3).data
        np.testing.assert_array_equal(once, twice)


class TestExtractWindow:
    def test_matches_naive_oracle(self, rng):
        for _ in range(40):
            dims = tuple(rng.integers(3, 12, size=3))
            arr = rng.random(dims, dtype=np.float32)
            w = int(rng.integers(1, 9))
            origin = tuple(int(rng.integers(-6, d + 6)) for d in dims)
            win = extract_window(VoxelVolume(arr), origin, w)
            np.testing.assert_array_equal(win, naive_window(arr, origin, w))

    def test_keeps_label_dtype(self):
        labels = LabelVolume(np.ones((4, 4, 4), dtype=np.uint8))
        assert extract_window(labels, (0, 0, 0), 2).dtype == np.uint8

    def test_fully_outside_is_all_zero(self):
        vol = VoxelVolume(np.ones((4, 4, 4), dtype=np.float32))
        win = extract_window(vol, (10, 10, 10), 3)
        assert not win.any()

    @given(shift=st.integers(min_value=-2, max_value=2))
    @settings(max_examples=20, deadline=None)
    def test_translation_equivariance(self, shift):
        rng = np.random.default_rng(7)
        arr = rng.random((16, 16, 16), dtype=np.float32)
        vol = VoxelVolume(arr)
        w = 4
        base = extract_window(vol, (6, 6, 6), w)
        moved = extract_window(vol, (6 + shift, 6, 6), w)
        # interior windows: the shared content lines up exactly
        if shift >= 0:
            np.testing.assert_array_equal(moved[: w - shift], base[shift:])
        else:
            np.testing.assert_array_equal(base[: w + shift], moved[-shift:])


class TestBuildPyramid:
    def test_levels_share_window_size_and_memory_is_linear(self, rng):
        arr = rng.random((40, 40, 40), dtype=np.float32)
        vol = VoxelVolume(arr)
        for levels in (1, 2, 3):
            pyr = build_pyramid(vol, (20, 20, 20), 8, 2, levels)
            assert pyr.shape == (levels, 8, 8, 8) and pyr.dtype == np.float32
            assert pyr.flags.c_contiguous
            assert pyr.nbytes == levels * 8**3 * 4

    def test_level0_is_raw_window(self, rng):
        arr = rng.random((32, 32, 32), dtype=np.float32)
        vol = VoxelVolume(arr)
        pyr = build_pyramid(vol, (16, 16, 16), 8, 2, 2)
        win = extract_window(vol, (12, 12, 12), 8)
        np.testing.assert_array_equal(pyr[0], win)

    def test_higher_levels_match_pool_of_wide_window(self, rng):
        for _ in range(20):
            dims = tuple(rng.integers(10, 30, size=3))
            arr = rng.random(dims, dtype=np.float32)
            vol = VoxelVolume(arr)
            w, d = 4, int(rng.integers(2, 4))
            center = tuple(int(rng.integers(0, n)) for n in dims)
            pyr = build_pyramid(vol, center, w, d, 3)
            for lvl in (1, 2):
                side = w * d**lvl
                origin = tuple(c - side // 2 for c in center)
                wide = naive_window(arr, origin, side)
                want = naive_average_pool(wide, d**lvl)
                np.testing.assert_allclose(pyr[lvl], want, rtol=1e-5, atol=1e-7)

    def test_border_levels_read_zeros(self):
        vol = VoxelVolume(np.ones((8, 8, 8), dtype=np.float32))
        pyr = build_pyramid(vol, (0, 0, 0), 4, 2, 2)
        # the level-1 region pokes far outside; padded voxels dilute the mean
        assert pyr[1].mean() < pyr[0].mean() + 1e-6

    def test_validates_arguments(self):
        vol = VoxelVolume(np.zeros((8, 8, 8), dtype=np.float32))
        with pytest.raises(ValueError):
            build_pyramid(vol, (4, 4, 4), 4, 1, 2)
        with pytest.raises(ValueError):
            build_pyramid(vol, (4, 4, 4), 4, 2, 0)

    def test_deep_pyramid_stays_small(self, rng):
        """(w, d, L) = (8, 2, 9): the top level spans a 2048-cube (32 GiB as
        float32) around a 24-cube volume; the table is clipped to the volume."""
        arr = rng.random((24, 24, 24), dtype=np.float32)
        vol = VoxelVolume(arr)
        center = (11, 3, 20)
        tracemalloc.start()
        try:
            pyr = build_pyramid(vol, center, 8, 2, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * arr.nbytes
        np.testing.assert_array_equal(pyr[0], naive_window(arr, (7, -1, 16), 8))
        for lvl in range(1, 9):
            # values are multiples of 2^-24, so every float64 sum is exact
            want = naive_pyramid_level(arr, center, 8, 2**lvl)
            np.testing.assert_array_equal(pyr[lvl], want, err_msg=f"level {lvl}")


class TestSummedAreaPyramid:
    @pytest.mark.parametrize("w,d,levels", [(16, 2, 4), (16, 4, 3), (4, 3, 3)])
    def test_equals_pool_of_extracted_window(self, rng, w, d, levels):
        """Shared and per-call tables give exactly the block means of the
        extracted, zero-padded cube, at random and border centers."""
        dims = (37, 30, 41)
        vol = VoxelVolume(rng.random(dims, dtype=np.float32))
        shared = integral_volume(vol, (0, 0, 0), dims)
        centers = [tuple(int(rng.integers(0, n)) for n in dims) for _ in range(3)]
        centers += [(0, 0, 0), (36, 29, 40), (0, 29, 17), (-3, 12, 45)]
        for center in centers:
            built = [build_pyramid(vol, center, w, d, levels, integral=t) for t in (None, shared)]
            for lvl in range(1, levels):
                side = w * d**lvl
                origin = tuple(c - side // 2 for c in center)
                want = _pooled_array(extract_window(vol, origin, side), d**lvl, "mean")
                for pyr in built:
                    np.testing.assert_array_equal(pyr[lvl], want,
                                                  err_msg=f"center {center} level {lvl}")

    def test_table_is_clipped_box_sum_with_zero_face(self, rng):
        arr = rng.random((6, 7, 8), dtype=np.float32)
        t = integral_volume(VoxelVolume(arr), (-2, 1, 3), (4, 9, 20))
        assert t.origin == (0, 1, 3)
        assert t.table.shape == (5, 7, 6) and t.table.dtype == np.float64
        assert not t.table[0].any() and not t.table[:, 0].any() and not t.table[:, :, 0].any()
        for i, j, k in [(4, 6, 5), (2, 3, 1), (1, 6, 4)]:
            want = arr[0:i, 1 : 1 + j, 3 : 3 + k].sum(dtype=np.float64)
            assert t.table[i, j, k] == pytest.approx(want, rel=1e-12)

    def test_table_not_covering_the_pyramid_is_rejected(self, rng):
        vol = VoxelVolume(rng.random((20, 20, 20), dtype=np.float32))
        small = integral_volume(vol, (0, 0, 0), (12, 20, 20))
        with pytest.raises(ValueError):
            build_pyramid(vol, (10, 10, 10), 4, 2, 2, integral=small)
        # a pyramid wholly outside the volume reads zeros from any table
        pyr = build_pyramid(vol, (60, 10, 10), 4, 2, 2, integral=small)
        assert not pyr[1].any()
