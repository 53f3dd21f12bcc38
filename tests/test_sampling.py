"""Coordinate and pyramid-location sampling."""

import numpy as np
import pytest

from hiloseg.errors import DegenerateLabelsError
from hiloseg.rng import make_rng
from hiloseg.sampling import (
    SamplerConfig,
    sample_biased_coords,
    sample_pyramid_location,
    sample_uniform_coords,
)
from hiloseg.voxel import LabelVolume


def make_labels(dims=(16, 12, 14), box=((4, 3, 5), (9, 7, 10))):
    data = np.zeros(dims, dtype=np.uint8)
    (x0, y0, z0), (x1, y1, z1) = box
    data[x0:x1, y0:y1, z0:z1] = 1
    return LabelVolume(data)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.n_train_coords == 2**14
        assert cfg.n_test_coords == 2**18
        assert cfg.n_hilo_coords == 2**11
        assert cfg.shape_fraction == 0.6
        assert cfg.redraw_prob == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(shape_fraction=1.2)
        with pytest.raises(ValueError):
            SamplerConfig(n_train_coords=0)
        with pytest.raises(ValueError):
            SamplerConfig(redraw_scope="everything")


class TestUniformCoords:
    def test_in_bounds_and_deterministic(self):
        dims = (10, 20, 30)
        a = sample_uniform_coords(dims, 500, seed=3)
        b = sample_uniform_coords(dims, 500, seed=3)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (500, 3) and a.dtype == np.int64
        assert (a >= 0).all()
        assert (a < np.array(dims)).all()

    def test_roughly_uniform_over_axes(self):
        dims = (8, 8, 8)
        coords = sample_uniform_coords(dims, 40000, seed=0)
        for axis in range(3):
            counts = np.bincount(coords[:, axis], minlength=8)
            assert counts.min() > 40000 / 8 * 0.85


class TestBiasedCoords:
    def test_labels_agree_with_lookup(self):
        labels = make_labels()
        coords, got = sample_biased_coords(labels, SamplerConfig(), 2000, rng=make_rng(5))
        assert coords.shape == (2000, 3) and coords.dtype == np.int64
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, labels.data[coords[:, 0], coords[:, 1], coords[:, 2]])

    def test_positive_share_matches_round(self):
        labels = make_labels()
        for n in (10, 11, 100, 333):
            cfg = SamplerConfig()
            _, got = sample_biased_coords(labels, cfg, n, rng=make_rng(2))
            # every shape draw lands on a positive voxel; uniform draws can
            # only add positives on top of round(n * fraction)
            assert int(got.sum()) >= round(n * cfg.shape_fraction)

    def test_fraction_zero_never_needs_positives(self):
        empty = LabelVolume(np.zeros((6, 6, 6), dtype=np.uint8))
        cfg = SamplerConfig(shape_fraction=0.0)
        coords, got = sample_biased_coords(empty, cfg, 50, rng=make_rng(0))
        assert len(coords) == len(got) == 50

    def test_degenerate_labels_raise(self):
        empty = LabelVolume(np.zeros((6, 6, 6), dtype=np.uint8))
        with pytest.raises(DegenerateLabelsError):
            sample_biased_coords(empty, SamplerConfig(), 10, rng=make_rng(0))

    def test_deterministic_per_seed(self):
        labels = make_labels()
        a = sample_biased_coords(labels, SamplerConfig(), 64, rng=make_rng(9))
        b = sample_biased_coords(labels, SamplerConfig(), 64, rng=make_rng(9))
        np.testing.assert_array_equal(a[0], b[0])


class TestPyramidLocation:
    def test_center_always_in_bounds(self):
        labels = make_labels()
        cfg = SamplerConfig()
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = sample_pyramid_location(labels, cfg, 4, 2, 2, rng=rng)
            assert all(0 <= v < n for v, n in zip(c, labels.dims))

    def test_hit_rate_matches_closed_form(self):
        """Redraw-until-hit with escape probability 1 - r.

        A draw is uniform; q is the chance its probe window contains a gun
        voxel. Misses are redrawn with probability r, so the chance the
        RETURNED location is a hit is q / (1 - (1 - q) * r).
        """
        dims = (16, 16, 16)
        data = np.zeros(dims, dtype=np.uint8)
        data[6:10, 6:10, 6:10] = 1
        labels = LabelVolume(data)
        w = 4
        # count centers whose w-window contains a positive voxel
        hits = 0
        for x in range(16):
            for y in range(16):
                for z in range(16):
                    lo = [c - w // 2 for c in (x, y, z)]
                    sl = tuple(slice(max(a, 0), min(a + w, 16)) for a in lo)
                    hits += bool(data[sl].any())
        q = hits / 16**3
        r = 0.9
        want = q / (1 - (1 - q) * r)

        cfg = SamplerConfig(redraw_prob=r)
        rng = np.random.default_rng(42)
        n = 20000
        got = 0
        for _ in range(n):
            c = sample_pyramid_location(labels, cfg, w, 2, 1, rng=rng)
            lo = [v - w // 2 for v in c]
            sl = tuple(slice(max(a, 0), min(a + w, 16)) for a in lo)
            got += bool(data[sl].any())
        assert abs(got / n - want) < 0.015

    def test_redraw_prob_zero_is_uniform(self):
        labels = make_labels()
        cfg = SamplerConfig(redraw_prob=0.0)
        rng = np.random.default_rng(1)
        centers = [sample_pyramid_location(labels, cfg, 4, 2, 1, rng=rng) for _ in range(3000)]
        xs = np.array([c[0] for c in centers])
        counts = np.bincount(xs, minlength=16)
        assert counts.min() > 3000 / 16 * 0.6

    def test_terminates_on_all_negative_volume(self):
        empty = LabelVolume(np.zeros((8, 8, 8), dtype=np.uint8))
        cfg = SamplerConfig()
        c = sample_pyramid_location(empty, cfg, 4, 2, 2, rng=np.random.default_rng(0))
        assert all(0 <= v < 8 for v in c)

    def test_redraw_one_on_gun_free_labels_raises(self):
        """No center can hit an all-zero volume, so redraw_prob = 1 would loop forever."""
        empty = LabelVolume(np.zeros((8, 8, 8), dtype=np.uint8))
        cfg = SamplerConfig(redraw_prob=1.0)
        with pytest.raises(DegenerateLabelsError):
            sample_pyramid_location(empty, cfg, 4, 2, 2, rng=np.random.default_rng(0))

    def test_redraw_one_with_single_positive_voxel_hits(self):
        data = np.zeros((8, 8, 8), dtype=np.uint8)
        data[6, 1, 3] = 1
        cfg = SamplerConfig(redraw_prob=1.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            c = sample_pyramid_location(LabelVolume(data), cfg, 2, 2, 2, rng=rng)
            assert all(a - 1 <= b < a + 1 for a, b in zip(c, (6, 1, 3)))

    def test_any_scope_accepts_level0_misses(self):
        # with redraw_prob 1.0 every returned center must satisfy the scope's
        # probe; under "any" that probe is the top-level footprint, so centers
        # whose small level-0 window misses the gun are still acceptable
        data = np.zeros((32, 32, 32), dtype=np.uint8)
        data[0:2, 0:2, 0:2] = 1
        labels = LabelVolume(data)
        rng = np.random.default_rng(3)
        cfg = SamplerConfig(redraw_prob=1.0, redraw_scope="any")
        top = 4 * 2**2
        saw_level0_miss = False
        for _ in range(200):
            c = sample_pyramid_location(labels, cfg, 4, 2, 3, rng=rng)
            lo = [v - top // 2 for v in c]
            sl = tuple(slice(max(a, 0), min(a + top, 32)) for a in lo)
            assert data[sl].any()
            lo0 = [v - 2 for v in c]
            sl0 = tuple(slice(max(a, 0), min(a + 4, 32)) for a in lo0)
            saw_level0_miss = saw_level0_miss or not data[sl0].any()
        assert saw_level0_miss
