"""Bounding boxes, tiling, windowed segmentation, MISE, and IoU metrics."""

import numpy as np
import pytest

from hiloseg.inference import (
    BoundingBox,
    TilingPlan,
    bb_iou,
    full_region,
    mise_evaluate,
    plan_tiling,
    sampled_iou,
    segment_volume,
    voxel_iou,
)
from hiloseg.models.hilo import HiLoConfig, HiLoModel, hilo_forward
from hiloseg.voxel import LabelVolume, VoxelVolume, build_pyramid


class TestBoundingBox:
    def test_from_points_and_accessors(self):
        pts = np.array([[2, 5, 1], [7, 3, 9], [4, 4, 4]])
        bb = BoundingBox.from_points(pts)
        assert bb.min == (2, 3, 1) and bb.max == (7, 5, 9)
        assert bb.volume == 6 * 3 * 9
        assert not bb.is_empty

    def test_from_no_points_is_empty(self):
        bb = BoundingBox.from_points(np.zeros((0, 3), dtype=np.int64))
        assert bb.is_empty
        assert bb.volume == 0

    def test_expand_and_clamp(self):
        bb = BoundingBox((2, 2, 2), (5, 5, 5)).expand(3)
        assert bb.min == (-1, -1, -1) and bb.max == (8, 8, 8)
        clamped = bb.clamp((7, 9, 6))
        assert clamped.min == (0, 0, 0) and clamped.max == (6, 8, 5)

    def test_clamp_outside_volume_is_empty(self):
        bb = BoundingBox((10, 10, 10), (12, 12, 12))
        assert bb.clamp((5, 5, 5)).is_empty

    def test_intersect(self):
        a = BoundingBox((0, 0, 0), (4, 4, 4))
        b = BoundingBox((2, 3, 4), (9, 9, 9))
        got = a.intersect(b)
        assert got.min == (2, 3, 4) and got.max == (4, 4, 4)
        assert a.intersect(BoundingBox((5, 0, 0), (9, 4, 4))).is_empty
        assert a.intersect(BoundingBox.empty()).is_empty

    def test_full_region(self):
        bb = full_region((10, 20, 30))
        assert bb.min == (0, 0, 0) and bb.max == (9, 19, 29)


class TestBBIoU:
    def test_identical(self):
        bb = BoundingBox((1, 1, 1), (5, 6, 7))
        assert bb_iou(bb, bb) == 1.0

    def test_disjoint(self):
        assert bb_iou(BoundingBox((0, 0, 0), (1, 1, 1)), BoundingBox((5, 5, 5), (6, 6, 6))) == 0.0

    def test_empty_conventions(self):
        e = BoundingBox.empty()
        full = BoundingBox((0, 0, 0), (3, 3, 3))
        assert bb_iou(e, e) == 1.0
        assert bb_iou(e, full) == 0.0
        assert bb_iou(full, e) == 0.0

    def test_known_overlap(self):
        # [0,3]^3 and [2,5]^3: intersection 2^3 = 8, union 64 + 64 - 8 = 120
        a = BoundingBox((0, 0, 0), (3, 3, 3))
        b = BoundingBox((2, 2, 2), (5, 5, 5))
        assert bb_iou(a, b) == pytest.approx(8 / 120)


class TestPlanTiling:
    def test_exact_division(self):
        plan = plan_tiling(BoundingBox((0, 0, 0), (15, 15, 15)), 8)
        assert len(plan) == 8
        assert (0, 0, 0) in plan.origins and (8, 8, 8) in plan.origins

    def test_overhang_gets_one_extra_window(self):
        # side w + 1 needs two windows per axis
        plan = plan_tiling(BoundingBox((0, 0, 0), (8, 8, 8)), 8)
        assert len(plan) == 8

    def test_origins_start_at_region_min(self):
        plan = plan_tiling(BoundingBox((3, 4, 5), (10, 4, 5)), 4)
        assert plan.origins[0] == (3, 4, 5)
        assert (7, 4, 5) in plan.origins

    def test_cover_exactly_once(self):
        """Counting oracle: region voxels are written by exactly one tile."""
        dims = (12, 10, 11)
        region = BoundingBox((1, 2, 0), (9, 9, 10))
        w = 4
        plan = plan_tiling(region, w)
        count = np.zeros(dims, dtype=np.int32)
        for origin in plan:
            lo = [max(o, r) for o, r in zip(origin, region.min)]
            hi = [min(o + w - 1, r, d - 1) for o, r, d in zip(origin, region.max, dims)]
            if any(a > b for a, b in zip(lo, hi)):
                continue
            count[tuple(slice(a, b + 1) for a, b in zip(lo, hi))] += 1
        inside = np.zeros(dims, dtype=bool)
        inside[tuple(slice(a, b + 1) for a, b in zip(region.min, region.max))] = True
        assert (count[inside] == 1).all()
        assert (count[~inside] == 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_tiling(BoundingBox.empty(), 4)
        with pytest.raises(ValueError):
            plan_tiling(BoundingBox((0, 0, 0), (3, 3, 3)), 0)


def seeded_model(cfg, seed):
    """A model whose zero-initialized entries are random too: the zero heads
    of a fresh model give probability 0.5 everywhere, whatever the pyramid."""
    model = HiLoModel(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    model.load_state_dict({k: v if v.any() else rng.normal(0, 0.1, v.shape).astype(v.dtype)
                           for k, v in model.state_dict().items()})
    return model


def tiny_hilo(decoder="cnn"):
    cfg = HiLoConfig(window_size=8, levels=2, encoder_blocks=2, cnn_decoder_blocks=2,
                     onet_decoder_blocks=2, base_channels=2, decoder_hidden=8,
                     decoder=decoder, batch_size=2)
    return cfg, seeded_model(cfg, 0)


@pytest.fixture(scope="module")
def blob_volume():
    rng = np.random.default_rng(5)
    data = (rng.random((20, 18, 16)) * 0.3).astype(np.float32)
    data[6:14, 5:12, 4:11] += 0.6
    return VoxelVolume(np.clip(data, 0, 1))


class TestSegmentVolume:
    def test_output_dims_and_region_masking(self, blob_volume):
        cfg, model = tiny_hilo()
        region = BoundingBox((4, 4, 4), (11, 11, 11))
        out = segment_volume(blob_volume, model, cfg, region)
        assert out.dims == blob_volume.dims
        outside = np.ones(blob_volume.dims, dtype=bool)
        outside[4:12, 4:12, 4:12] = False
        assert not out.data[outside].any()

    def test_region_clamped_to_volume(self, blob_volume):
        cfg, model = tiny_hilo()
        region = BoundingBox((12, 12, 12), (40, 40, 40))
        out = segment_volume(blob_volume, model, cfg, region)
        assert out.dims == blob_volume.dims

    def test_region_fully_outside_gives_zeros(self, blob_volume):
        cfg, model = tiny_hilo()
        out = segment_volume(blob_volume, model, cfg, BoundingBox((30, 30, 30), (40, 40, 40)))
        assert not out.data.any()

    def test_tile_order_invariance(self, blob_volume):
        """Shuffled plans must produce bitwise-identical outputs."""
        cfg, model = tiny_hilo()
        region = full_region(blob_volume.dims)
        plan = plan_tiling(region, cfg.window_size)
        rng = np.random.default_rng(3)
        shuffled = TilingPlan(plan.window_size,
                              tuple(plan.origins[i] for i in rng.permutation(len(plan))))
        a = segment_volume(blob_volume, model, cfg, region, plan=plan)
        b = segment_volume(blob_volume, model, cfg, region, plan=shuffled)
        np.testing.assert_array_equal(a.data, b.data)

    def test_threaded_equals_serial(self, blob_volume):
        cfg, model = tiny_hilo()
        a = segment_volume(blob_volume, model, cfg, threads=1)
        b = segment_volume(blob_volume, model, cfg, threads=3)
        assert 0 < a.data.sum() < a.data.size
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_fewer_than_one_thread(self, blob_volume, threads):
        cfg, model = tiny_hilo()
        with pytest.raises(ValueError, match="threads"):
            segment_volume(blob_volume, model, cfg, threads=threads)

    def test_shared_table_equals_tile_by_tile_pyramids(self, blob_volume):
        """One summed-area table per call gives the labels of per-tile
        pyramids built without it, on a region touching the scan's edge."""
        cfg = HiLoConfig(window_size=4, levels=3, encoder_blocks=1, cnn_decoder_blocks=1,
                         base_channels=2)
        model = seeded_model(cfg, 2)
        region = BoundingBox((9, 0, 6), (19, 17, 15))
        got = segment_volume(blob_volume, model, cfg, region).data
        want = np.zeros_like(got)
        for origin in plan_tiling(region, 4):
            center = tuple(o + 2 for o in origin)
            pyr = build_pyramid(blob_volume, center, 4, cfg.downsampling_factor, cfg.levels)
            pred = hilo_forward(pyr, cfg, model) > cfg.threshold
            x, y, z = origin
            want[x : x + 4, y : y + 4, z : z + 4] = pred[: 20 - x, : 18 - y, : 16 - z]
        inside = got[9:, :, 6:]
        assert 0 < inside.sum() < inside.size
        np.testing.assert_array_equal(got, want)

    def test_coordinate_decoder_path(self, blob_volume):
        cfg, model = tiny_hilo(decoder="onet")
        out = segment_volume(blob_volume, model, cfg, BoundingBox((4, 4, 4), (11, 11, 11)))
        assert out.dims == blob_volume.dims
        assert out.data.dtype == np.uint8


def make_convex_grid(dims, kind, rng):
    """Random convex occupancy grid, always large enough for a coarse lattice
    to catch: every extent stays above a quarter of the volume side."""
    x, y, z = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
    cx, cy, cz = [rng.uniform(n * 0.35, n * 0.65) for n in dims]
    if kind == "sphere":
        r = rng.uniform(min(dims) * 0.25, min(dims) * 0.4)
        return ((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2 <= r * r)
    if kind == "box":
        hx, hy, hz = [rng.uniform(n * 0.2, n * 0.35) for n in dims]
        return ((np.abs(x - cx) <= hx) & (np.abs(y - cy) <= hy) & (np.abs(z - cz) <= hz))
    # axis-aligned ellipsoid
    rx, ry, rz = [rng.uniform(n * 0.25, n * 0.42) for n in dims]
    return (((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2 + ((z - cz) / rz) ** 2 <= 1.0)


class CountingDecode:
    """Occupancy lookup that counts how many points were evaluated."""

    def __init__(self, grid):
        self.grid = grid
        self.calls = 0
        self.points = 0

    def __call__(self, coords):
        self.calls += 1
        self.points += len(coords)
        return self.grid[coords[:, 0], coords[:, 1], coords[:, 2]].astype(np.float64)


class TestMise:
    def test_boxes_match_dense_at_any_factor(self, rng):
        """Axis-aligned boxes with sides >= the lattice spacing are provably
        exact: wherever a cell overlaps the box, one of its corners lies
        inside, so no all-outside cell ever hides occupied voxels."""
        dims = (32, 32, 32)
        for factor in (4, 8):
            for _ in range(5):
                grid = make_convex_grid(dims, "box", rng)
                decode = CountingDecode(grid.astype(np.float64))
                got = mise_evaluate(decode, dims, initial_factor=factor)
                np.testing.assert_array_equal(got.data.astype(bool), grid)

    def test_round_shapes_match_dense_at_resolving_lattice(self, rng):
        """Curved boundaries can slip a thin cap through a coarse cell whose
        corners all sit outside; a lattice fine relative to the radii keeps
        the refinement exact."""
        dims = (32, 32, 32)
        for kind in ("sphere", "ellipsoid"):
            for _ in range(3):
                grid = make_convex_grid(dims, kind, rng)
                decode = CountingDecode(grid.astype(np.float64))
                got = mise_evaluate(decode, dims, initial_factor=2)
                np.testing.assert_array_equal(got.data.astype(bool), grid, err_msg=kind)

    def test_saves_evaluations(self, rng):
        dims = (32, 32, 32)
        grid = make_convex_grid(dims, "sphere", rng)
        decode = CountingDecode(grid.astype(np.float64))
        mise_evaluate(decode, dims, initial_factor=8)
        assert decode.points < np.prod(dims) / 2

    def test_each_lattice_point_evaluated_once(self, rng):
        dims = (16, 16, 16)
        grid = make_convex_grid(dims, "box", rng)
        seen = set()

        def decode(coords):
            for c in map(tuple, coords):
                assert c not in seen, f"{c} evaluated twice"
                seen.add(c)
            return grid[coords[:, 0], coords[:, 1], coords[:, 2]].astype(np.float64)

        mise_evaluate(decode, dims, initial_factor=4)

    def test_ragged_dims_match_dense(self, rng):
        """Dims that do not divide the factor exercise the clamped border."""
        dims = (20, 13, 19)
        grid = make_convex_grid(dims, "box", rng)
        got = mise_evaluate(CountingDecode(grid.astype(np.float64)), dims, initial_factor=8)
        np.testing.assert_array_equal(got.data.astype(bool), grid)

    def test_factor_one_is_dense(self, rng):
        dims = (6, 7, 5)
        grid = rng.random(dims) > 0.5  # arbitrary occupancy, no structure
        got = mise_evaluate(CountingDecode(grid.astype(np.float64)), dims, initial_factor=1)
        np.testing.assert_array_equal(got.data.astype(bool), grid)

    def test_empty_and_full_volumes(self):
        dims = (16, 16, 16)
        empty = mise_evaluate(lambda c: np.zeros(len(c)), dims, 8)
        assert not empty.data.any()
        full = mise_evaluate(lambda c: np.ones(len(c)), dims, 8)
        assert full.data.all()

    def test_validation(self):
        with pytest.raises(ValueError):
            mise_evaluate(lambda c: np.zeros(len(c)), (8, 8, 8), initial_factor=6)
        with pytest.raises(ValueError):
            mise_evaluate(lambda c: np.zeros(len(c)), (0, 8, 8), initial_factor=2)


class TestIoUMetrics:
    def test_voxel_iou_basics(self):
        a = LabelVolume(np.zeros((4, 4, 4), dtype=np.uint8))
        b = LabelVolume(np.zeros((4, 4, 4), dtype=np.uint8))
        assert voxel_iou(a, b) == 1.0  # both empty
        b.data[0, 0, 0] = 1
        assert voxel_iou(a, b) == 0.0
        assert voxel_iou(b, b) == 1.0

    def test_voxel_iou_closed_form(self):
        p = np.zeros((4, 4, 4), dtype=np.uint8)
        t = np.zeros((4, 4, 4), dtype=np.uint8)
        p[0:2] = 1  # 32 voxels
        t[1:3] = 1  # 32 voxels, overlap 16
        assert voxel_iou(LabelVolume(p), LabelVolume(t)) == pytest.approx(16 / 48)

    def test_voxel_iou_dims_mismatch(self):
        with pytest.raises(ValueError):
            voxel_iou(
                LabelVolume(np.zeros((4, 4, 4), dtype=np.uint8)),
                LabelVolume(np.zeros((4, 4, 5), dtype=np.uint8)),
            )

    def test_sampled_iou_oracle_decode_is_exact(self, rng):
        truth = LabelVolume((rng.random((12, 12, 12)) > 0.7).astype(np.uint8))

        def decode(coords):
            return truth.data[coords[:, 0], coords[:, 1], coords[:, 2]].astype(np.float64)

        assert sampled_iou(decode, truth, n=4096, seed=1) == 1.0

    def test_sampled_iou_zero_decode(self, rng):
        truth = LabelVolume((rng.random((12, 12, 12)) > 0.5).astype(np.uint8))
        assert sampled_iou(lambda c: np.zeros(len(c)), truth, n=4096, seed=1) == 0.0

    def test_sampled_iou_tracks_voxel_iou(self, rng):
        dims = (24, 24, 24)
        t = np.zeros(dims, dtype=np.uint8)
        t[4:18, 6:20, 3:15] = 1
        p = np.zeros(dims, dtype=np.uint8)
        p[7:20, 6:20, 3:17] = 1
        truth, pred = LabelVolume(t), LabelVolume(p)

        def decode(coords):
            return p[coords[:, 0], coords[:, 1], coords[:, 2]].astype(np.float64)

        exact = voxel_iou(pred, truth)
        est = sampled_iou(decode, truth, n=2**16, seed=0)
        assert abs(est - exact) < 0.02

    def test_sampled_iou_deterministic(self, rng):
        truth = LabelVolume((rng.random((10, 10, 10)) > 0.6).astype(np.uint8))

        def decode(coords):
            return (coords.sum(axis=1) % 3 == 0).astype(np.float64)

        assert sampled_iou(decode, truth, n=1000, seed=4) == sampled_iou(
            decode, truth, n=1000, seed=4
        )
