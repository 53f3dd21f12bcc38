"""Model families: window-pyramid segmentation nets and pooled-volume
occupancy nets.

Architectural numbers (pooling schedules, the flagship parameter count)
are frozen here so saved weights stay loadable across refactors. The
fresh-model tests pin the zero-initialized heads: an untrained model must
answer exactly 0.5 everywhere, with no spatial bias.
"""

import contextlib
import weakref

import numpy as np
import pytest
from conftest import meter_peak

from hiloseg import nn
from hiloseg.models import (
    HiLoConfig,
    HiLoModel,
    OnetConfig,
    OnetModel,
    coordinate_pool_schedule,
    extract_bounding_box,
    hilo_forward,
    normalize_coords,
    onet_decode,
    onet_encode,
)
from hiloseg.models.hilo import HiLoEncoder
from hiloseg.models.onet import OnetEncoder
from hiloseg.voxel import VoxelVolume, average_pool, build_pyramid

TINY_HILO = dict(
    window_size=8,
    levels=2,
    encoder_blocks=2,
    cnn_decoder_blocks=2,
    onet_decoder_blocks=2,
    base_channels=2,
    decoder_hidden=8,
    batch_size=2,
)

TINY_ONET = dict(
    encoder_blocks=2,
    decoder_blocks=2,
    base_channels=4,
    latent_dim=16,
    decoder_hidden=8,
)


def random_volume(dims, seed=0):
    rng = np.random.default_rng(seed)
    return VoxelVolume(rng.random(dims, dtype=np.float32))


def nudged(model, rng):
    """Load random weights into the zero-initialized output head so the
    model stops answering a constant 0.5."""
    sd = model.state_dict()
    for key in sd:
        if ".head." in key:
            sd[key] = rng.normal(0.0, 0.5, size=sd[key].shape).astype(sd[key].dtype)
    model.load_state_dict(sd)
    return model


class TestHiLoConfig:
    def test_defaults(self):
        cfg = HiLoConfig()
        assert cfg.window_size == 16
        assert cfg.downsampling_factor == 2
        assert cfg.levels == 2
        assert cfg.decoder == "cnn"
        assert cfg.encoder_blocks == 6
        assert cfg.cnn_decoder_blocks == 7
        assert cfg.onet_decoder_blocks == 3
        assert cfg.threshold == 0.5
        assert cfg.batch_size == 16
        assert cfg.base_channels == 6
        assert cfg.decoder_hidden == 64

    def test_kind_names_the_family(self):
        assert HiLoConfig().kind == "hilo"
        assert HiLoConfig(decoder="onet").kind == "hilo"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(window_size=7),
            dict(window_size=2),
            dict(downsampling_factor=1),
            dict(levels=0),
            dict(decoder="mlp"),
            dict(encoder_blocks=0),
            dict(cnn_decoder_blocks=0),
            dict(onet_decoder_blocks=0),
            dict(threshold=0.0),
            dict(threshold=1.0),
            dict(batch_size=0),
            dict(base_channels=0),
            dict(decoder_hidden=0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            HiLoConfig(**kwargs)


class TestOnetConfig:
    def test_defaults(self):
        cfg = OnetConfig()
        assert cfg.conditioning == "cbn"
        assert cfg.encoder_blocks == 5
        assert cfg.decoder_blocks == 5
        assert cfg.input_downsample == 8
        assert cfg.threshold == 0.5
        assert cfg.latent_dim == 128
        assert cfg.base_channels == 16
        assert cfg.decoder_hidden == 64
        assert cfg.coord_resolution == "high"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(conditioning="film"),
            dict(threshold=0.0),
            dict(encoder_blocks=0),
            dict(decoder_blocks=0),
            dict(input_downsample=0),
            dict(threshold=1.5),
            dict(latent_dim=0),
            dict(base_channels=0),
            dict(decoder_hidden=0),
            dict(coord_resolution="medium"),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OnetConfig(**kwargs)


class TestCoordinatePoolSchedule:
    def test_default_window(self):
        # 16 -> 8 -> 4, then halving would drop below side 3
        assert coordinate_pool_schedule(16, 6) == [True, True, False, False, False, False]

    @pytest.mark.parametrize(
        "window,blocks,want",
        [
            (8, 2, [True, False]),
            (12, 4, [True, True, False, False]),
            (6, 3, [True, False, False]),
            (4, 3, [False, False, False]),
            (32, 4, [True, True, True, False]),
        ],
    )
    def test_small_windows(self, window, blocks, want):
        assert coordinate_pool_schedule(window, blocks) == want

    def test_pooling_never_resumes(self):
        for window in range(4, 34, 2):
            for blocks in range(1, 9):
                sched = coordinate_pool_schedule(window, blocks)
                assert len(sched) == blocks
                if False in sched:
                    first = sched.index(False)
                    assert not any(sched[first:])

    def test_side_never_drops_below_three(self):
        for window in range(4, 34, 2):
            side = window
            for pool in coordinate_pool_schedule(window, 8):
                if pool:
                    side //= 2
            assert side >= 3

    def test_matches_coord_decoder_input_width(self):
        cfg = HiLoConfig(decoder="onet", **TINY_HILO)
        model = HiLoModel(cfg, seed=0)
        side = cfg.window_size
        for pool in coordinate_pool_schedule(cfg.window_size, cfg.encoder_blocks):
            if pool:
                side //= 2
        want = 3 + cfg.levels * side**3 * cfg.base_channels
        assert model.decoder.input.w.data.shape[0] == want


class TestLatentCode:
    """``onet_encode`` returns the latent code as a (latent_dim,) array."""

    def test_flattens_and_keeps_dtype(self):
        for dtype in (np.float32, np.float64):
            cfg = OnetConfig(input_downsample=1, **TINY_ONET)
            z = onet_encode(random_volume((8, 8, 8)), cfg, OnetModel(cfg, seed=0, dtype=dtype))
            assert z.shape == (cfg.latent_dim,)
            assert z.dtype == dtype

    def test_rejects_non_finite(self):
        cfg = OnetConfig(input_downsample=1, **TINY_ONET)
        model = OnetModel(cfg, seed=0)
        model.encoder.head.b.data[1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            onet_encode(random_volume((8, 8, 8)), cfg, model)


class TestNormalizeCoords:
    def test_divides_per_axis(self):
        coords = np.array([[4, 10, 0], [8, 20, 30]], dtype=np.int64)
        got = normalize_coords(coords, (8, 20, 30))
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, [[0.5, 0.5, 0.0], [1.0, 1.0, 1.0]])


class TestFreshModelsAnswerHalf:
    """Output heads start at zero weights, so sigmoid gives exactly 0.5."""

    def test_hilo_grid(self):
        cfg = HiLoConfig(**TINY_HILO)
        vol = random_volume((20, 18, 16))
        pyr = build_pyramid(vol, (10, 9, 8), cfg.window_size, 2, cfg.levels)
        out = hilo_forward(pyr, cfg, HiLoModel(cfg, seed=0))
        assert out.shape == (8, 8, 8)
        assert np.all(out == 0.5)

    def test_hilo_coord(self):
        cfg = HiLoConfig(decoder="onet", **TINY_HILO)
        vol = random_volume((20, 18, 16))
        pyr = build_pyramid(vol, (10, 9, 8), cfg.window_size, 2, cfg.levels)
        coords = np.array([[0, 0, 0], [3, 4, 5], [7, 7, 7]], dtype=np.int64)
        out = hilo_forward(pyr, cfg, HiLoModel(cfg, seed=0), coords=coords)
        assert out.shape == (3,)
        assert np.all(out == 0.5)

    def test_onet(self):
        cfg = OnetConfig(**TINY_ONET)
        model = OnetModel(cfg, seed=0)
        lat = onet_encode(random_volume((32, 24, 16)), cfg, model)
        probs = onet_decode(np.array([[1, 2, 3], [30, 20, 10]]), lat, cfg, model, dims=(32, 24, 16))
        assert np.all(probs == 0.5)


class TestHiLoForward:
    @pytest.mark.parametrize("window,factor,levels", [(8, 2, 1), (8, 2, 2), (8, 3, 2), (16, 2, 2)])
    def test_grid_shapes(self, window, factor, levels):
        cfg = HiLoConfig(
            window_size=window,
            downsampling_factor=factor,
            levels=levels,
            encoder_blocks=2,
            cnn_decoder_blocks=2,
            base_channels=2,
        )
        vol = random_volume((40, 36, 34))
        pyr = build_pyramid(vol, (20, 18, 17), window, factor, levels)
        model = nudged(HiLoModel(cfg, seed=0), np.random.default_rng(1))
        out = hilo_forward(pyr, cfg, model)
        assert out.shape == (window, window, window)
        assert np.all((out >= 0) & (out <= 1))
        assert out.std() > 0

    def test_level_count_mismatch(self):
        cfg = HiLoConfig(**TINY_HILO)
        vol = random_volume((20, 18, 16))
        pyr = build_pyramid(vol, (10, 9, 8), cfg.window_size, 2, levels=1)
        with pytest.raises(ValueError, match="levels"):
            hilo_forward(pyr, cfg, HiLoModel(cfg, seed=0))

    @pytest.mark.parametrize("decoder", ["cnn", "onet"])
    def test_window_size_mismatch(self, decoder):
        """A pyramid of 8-windows for a 16-window model is refused, naming both shapes."""
        cfg = HiLoConfig(**{**TINY_HILO, "window_size": 16, "decoder": decoder})
        pyr = build_pyramid(random_volume((20, 18, 16)), (10, 9, 8), 8, 2, cfg.levels)
        coords = np.zeros((2, 3), dtype=np.int64) if decoder == "onet" else None
        with pytest.raises(ValueError, match=r"\(2, 8, 8, 8\).*\(2, 16, 16, 16\)"):
            hilo_forward(pyr, cfg, HiLoModel(cfg, seed=0), coords=coords)

    def test_grid_decoder_rejects_coords(self):
        cfg = HiLoConfig(**TINY_HILO)
        vol = random_volume((20, 18, 16))
        pyr = build_pyramid(vol, (10, 9, 8), cfg.window_size, 2, cfg.levels)
        with pytest.raises(ValueError, match="coordinate"):
            hilo_forward(pyr, cfg, HiLoModel(cfg, seed=0), coords=np.zeros((2, 3), dtype=np.int64))

    def test_coord_decoder_without_coords_answers_the_whole_window(self):
        """With no query the coordinate decoder answers every voxel of the
        window: bit for bit the explicit C-order lattice query, reshaped."""
        cfg = HiLoConfig(decoder="onet", **TINY_HILO)
        w = cfg.window_size
        pyr = build_pyramid(random_volume((20, 18, 16)), (10, 9, 8), w, 2, cfg.levels)
        model = nudged(HiLoModel(cfg, seed=0), np.random.default_rng(1))
        lattice = np.stack(np.unravel_index(np.arange(w**3), (w, w, w)), axis=1)
        want = hilo_forward(pyr, cfg, model, coords=lattice).reshape(w, w, w)
        got = hilo_forward(pyr, cfg, model)
        assert got.shape == (w, w, w) and got.dtype == model.dtype
        assert got.std() > 0
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("decoder", ["cnn", "onet"])
    def test_decoder_kind_is_checked_before_any_encoder_runs(self, decoder):
        """A query the decoder cannot take is refused before any level is
        encoded, so the failing call leaves nothing on the byte meter."""
        cfg = HiLoConfig(decoder=decoder, **TINY_HILO)
        model = HiLoModel(cfg, seed=0)
        levels = [nn.Tensor(np.ones((1, 8, 8, 8, 1), np.float32)) for _ in range(cfg.levels)]
        coords01 = nn.Tensor(np.zeros((1, 2, 3), np.float32)) if decoder == "cnn" else None

        def call():
            with pytest.raises(ValueError, match="coordinate"):
                model.forward_batch(levels, coords01)

        assert meter_peak(call) == 0

    @pytest.mark.parametrize("count, word", [(1, "fewer"), (3, "more")])
    def test_forward_batch_level_count_mismatch(self, count, word):
        cfg = HiLoConfig(**TINY_HILO)
        levels = [nn.Tensor(np.ones((1, 8, 8, 8, 1), np.float32)) for _ in range(count)]
        with pytest.raises(ValueError, match=f"{word} levels"):
            HiLoModel(cfg, seed=0).forward_batch(levels)

    def test_batch_matches_singletons(self):
        cfg = HiLoConfig(**TINY_HILO)
        vol = random_volume((30, 28, 26))
        pyrs = [
            build_pyramid(vol, c, cfg.window_size, 2, cfg.levels)
            for c in [(8, 9, 10), (20, 18, 14), (15, 15, 15)]
        ]
        model = nudged(HiLoModel(cfg, seed=0), np.random.default_rng(3))
        levels = [
            nn.Tensor(np.stack([p[i] for p in pyrs])[..., None])
            for i in range(cfg.levels)
        ]
        with nn.no_grad():
            batched = model.forward_batch(levels).data
        for i, pyr in enumerate(pyrs):
            np.testing.assert_allclose(batched[i], hilo_forward(pyr, cfg, model), atol=1e-6)

    def test_levels_have_independent_encoders(self):
        cfg = HiLoConfig(**TINY_HILO)
        model = nudged(HiLoModel(cfg, seed=0), np.random.default_rng(4))
        sd = model.state_dict()
        assert "encoders.0.stem.w" in sd and "encoders.1.stem.w" in sd
        assert not np.array_equal(sd["encoders.0.stem.w"], sd["encoders.1.stem.w"])

        # and the decoder actually reads both levels
        vol = random_volume((30, 28, 26))
        pyr = build_pyramid(vol, (15, 14, 13), cfg.window_size, 2, cfg.levels)
        base = hilo_forward(pyr, cfg, model)
        for lvl in range(2):
            blanked = pyr.copy()
            blanked[lvl] = 0.0
            assert not np.array_equal(hilo_forward(blanked, cfg, model), base)


def parameter_count(model) -> int:
    return sum(p.data.size for p in model.parameters())


class TestParameterCounts:
    def test_flagship_count_and_ordering(self):
        # the occupancy network's encoder at 32 and 16 base channels
        counts = {
            (cond, channels): parameter_count(
                OnetModel(OnetConfig(conditioning=cond, base_channels=channels), seed=0)
            )
            for cond in ("cbn", "concat")
            for channels in (32, 16)
        }
        assert counts[("cbn", 32)] == 1_562_273
        for cond in ("cbn", "concat"):
            assert counts[(cond, 32)] > counts[(cond, 16)]
        for channels in (32, 16):
            assert counts[("cbn", channels)] > counts[("concat", channels)]

    def test_hilo_grid_decoder_is_smaller_than_coord(self):
        cnn = parameter_count(HiLoModel(HiLoConfig(), seed=0))
        coord = parameter_count(HiLoModel(HiLoConfig(decoder="onet"), seed=0))
        assert 0 < cnn < coord

    @pytest.mark.parametrize("decoder,count,entries", [("cnn", 39_061, 140), ("onet", 99_149, 113)])
    def test_hilo_count_at_default_config(self, decoder, count, entries):
        model = HiLoModel(HiLoConfig(decoder=decoder), seed=0)
        assert parameter_count(model) == count
        assert len(model.state_dict()) == entries

    def test_hilo_coord_decoder_key_order(self):
        block = ("norm1.gamma", "norm1.beta", "dense1.w", "norm2.gamma", "norm2.beta",
                 "dense2.w", "dense2.b")
        want = (["input.w", "input.b"]
                + [f"blocks.{i}.{k}" for i in range(3) for k in block]
                + ["final_norm.gamma", "final_norm.beta", "head.w", "head.b"])
        decoder = HiLoModel(HiLoConfig(decoder="onet"), seed=0).decoder
        assert list(decoder.state_dict()) == want


class TestOnetEncodeDecode:
    def test_latent_length(self):
        cfg = OnetConfig(**TINY_ONET)
        lat = onet_encode(random_volume((32, 24, 16)), cfg, OnetModel(cfg, seed=0))
        assert lat.shape == (cfg.latent_dim,)

    def test_pooled_twin_gives_identical_latent(self):
        """Encoding at input_downsample=8 equals pooling first and encoding
        with an input_downsample=1 twin sharing the weights."""
        cfg8 = OnetConfig(input_downsample=8, **TINY_ONET)
        cfg1 = OnetConfig(input_downsample=1, **TINY_ONET)
        m8 = OnetModel(cfg8, seed=5)
        m1 = OnetModel(cfg1, seed=5)
        m1.load_state_dict(m8.state_dict())
        vol = random_volume((64, 48, 40), seed=6)
        lat8 = onet_encode(vol, cfg8, m8)
        lat1 = onet_encode(average_pool(vol, 8), cfg1, m1)
        np.testing.assert_array_equal(lat8, lat1)

    def test_tiny_volume_encodes(self):
        cfg = OnetConfig(input_downsample=1, **TINY_ONET)
        lat = onet_encode(random_volume((4, 3, 5)), cfg, OnetModel(cfg, seed=0))
        assert np.isfinite(lat).all()
        assert lat.shape == (cfg.latent_dim,)

    @pytest.mark.parametrize("conditioning", ["cbn", "concat"])
    def test_decode_is_per_point(self, conditioning):
        cfg = OnetConfig(conditioning=conditioning, **TINY_ONET)
        model = nudged(OnetModel(cfg, seed=0), np.random.default_rng(7))
        dims = (32, 24, 16)
        lat = onet_encode(random_volume(dims), cfg, model)
        coords = np.random.default_rng(8).integers(0, 16, size=(16, 3))
        probs = onet_decode(coords, lat, cfg, model, dims)
        assert probs.std() > 0
        np.testing.assert_allclose(onet_decode(coords[::-1], lat, cfg, model, dims), probs[::-1],
                                   atol=1e-6)
        np.testing.assert_allclose(onet_decode(coords[3:7], lat, cfg, model, dims), probs[3:7],
                                   atol=1e-6)

    def test_decode_in_chunks_matches_one_pass(self, monkeypatch):
        """Bit for bit, down to one-point chunks and a one-point tail."""
        from hiloseg.models import onet as onet_module

        cfg = OnetConfig(**TINY_ONET)
        model = nudged(OnetModel(cfg, seed=0), np.random.default_rng(7))
        dims = (32, 24, 16)
        lat = onet_encode(random_volume(dims), cfg, model)
        coords = np.random.default_rng(8).integers(0, 16, size=(16, 3))
        whole = onet_decode(coords, lat, cfg, model, dims)
        for chunk in (1, 5, 15):
            monkeypatch.setattr(onet_module, "_DECODE_CHUNK", chunk)
            got = onet_decode(coords, lat, cfg, model, dims)
            np.testing.assert_array_equal(got, whole, err_msg=f"chunk {chunk}")
        assert onet_decode(coords[:0], lat, cfg, model, dims).shape == (0,)

    def test_rejects_bad_coordinate_shape(self):
        cfg = OnetConfig(**TINY_ONET)
        model = OnetModel(cfg, seed=0)
        lat = onet_encode(random_volume((32, 24, 16)), cfg, model)
        with pytest.raises(ValueError, match="shape"):
            onet_decode(np.zeros((4, 2), dtype=np.int64), lat, cfg, model, (32, 24, 16))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, bool])
    def test_rejects_non_integer_coordinates(self, dtype):
        """Unit-cube floats would be divided by ``dims`` a second time."""
        cfg = OnetConfig(**TINY_ONET)
        model = OnetModel(cfg, seed=0)
        lat = onet_encode(random_volume((32, 24, 16)), cfg, model)
        with pytest.raises(ValueError, match="integer"):
            onet_decode(np.zeros((4, 3), dtype=dtype), lat, cfg, model, (32, 24, 16))


def points_mask(pts, dims):
    mask = np.zeros(dims, dtype=bool)
    mask[tuple(np.asarray(pts).T)] = True
    return mask


class TestExtractBoundingBox:
    def test_margin_example(self):
        pts = np.array([[20, 20, 20], [40, 40, 40], [30, 25, 35]])
        box = extract_bounding_box(points_mask(pts, (64, 64, 64)), margin=10, dims=(64, 64, 64))
        assert box.min == (10, 10, 10)
        assert box.max == (50, 50, 50)

    @pytest.mark.parametrize("margin", [0, 3, 10])
    def test_matches_fold_oracle(self, margin):
        rng = np.random.default_rng(margin)
        dims = (48, 55, 61)
        pts = rng.integers(0, 48, size=(40, 3))
        box = extract_bounding_box(points_mask(pts, dims), margin=margin, dims=dims)
        lo = np.maximum(pts.min(axis=0) - margin, 0)
        hi = np.minimum(pts.max(axis=0) + margin, np.array(dims) - 1)
        assert box.min == tuple(lo.tolist())
        assert box.max == tuple(hi.tolist())

    def test_mask_input(self):
        rng = np.random.default_rng(12)
        mask = rng.random((20, 22, 18)) > 0.95
        box = extract_bounding_box(mask, margin=2, dims=mask.shape)
        pts = np.argwhere(mask)
        assert box.min == tuple(np.maximum(pts.min(axis=0) - 2, 0).tolist())
        assert box.max == tuple(np.minimum(pts.max(axis=0) + 2, np.array(mask.shape) - 1).tolist())

    def test_empty_input_gives_empty_box(self):
        assert extract_bounding_box(np.zeros((5, 5, 5), dtype=bool), dims=(5, 5, 5)).is_empty


@pytest.mark.parametrize("tape", [False, True], ids=["no-tape", "tape"])
@pytest.mark.parametrize("family", ["hilo", "onet"])
def test_encoder_hands_its_input_over_after_its_stem(family, tape):
    """Each encoder's input holds no array once the stem has read it, by
    the first block, while the caller still holds the tensor, as an
    instance call does. The array itself dies there unless the stem's
    backward reads it (its kernel gradient, under a tape)."""
    rng = np.random.default_rng(0)
    if family == "hilo":
        enc = HiLoEncoder(HiLoConfig(**TINY_HILO), rng)
    else:
        enc = OnetEncoder(OnetConfig(**TINY_ONET), rng)
    x = nn.Tensor(rng.normal(size=(2, 8, 8, 8, 1)).astype(np.float32))
    arr = weakref.ref(x.data)
    seen, first = [], enc.blocks[0]
    enc.blocks[0] = lambda h: seen.append((x.data is None, arr() is None)) or first(h)
    with contextlib.nullcontext() if tape else nn.no_grad():
        enc(x)
    assert seen == [(True, not tape)]
