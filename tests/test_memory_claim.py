"""The memory claim behind window pyramids: the byte meter's peak for one
training step and for segmenting a fixed region depends on the window
configuration, not on the scan's size. The occupancy encoder, which sees
the whole pooled scan, is measured next to it to show that the meter does
see scan size where a model depends on it."""

import dataclasses

import pytest
from conftest import meter_peak

from hiloseg.data_io import SynthConfig, generate_synthetic_one
from hiloseg.inference import BoundingBox, segment_volume
from hiloseg.models import (
    HiLoConfig,
    HiLoModel,
    OnetConfig,
    OnetModel,
    train_hilo,
    train_superres_onet,
)
from hiloseg.models.onet import onet_encode
from hiloseg.queue import TrainingQueue
from hiloseg.sampling import SamplerConfig

CFG = HiLoConfig(window_size=8, downsampling_factor=2, levels=3, encoder_blocks=1,
                 cnn_decoder_blocks=1, base_channels=2, batch_size=2)
# the benchmark's segmentation model: windows of 16, pyramid factor 4, 3 levels
DEEP = HiLoConfig(window_size=16, downsampling_factor=4, levels=3, base_channels=6)
# small enough to train at four pyramid depths: two blocks on each side,
# encodings of 4³ × 2 float32 (512 B) per item
TRAIN = HiLoConfig(window_size=8, downsampling_factor=2, levels=1, encoder_blocks=2,
                   cnn_decoder_blocks=2, base_channels=2, batch_size=4)
ONET = OnetConfig(input_downsample=4, encoder_blocks=1, decoder_blocks=1, base_channels=2,
                  latent_dim=8, decoder_hidden=8)


def peaks(side: int) -> dict[str, int]:
    scan = generate_synthetic_one(SynthConfig(dims=(side,) * 3, seed=1), 0)
    vol = scan[0]
    model = HiLoModel(CFG, seed=0)
    c = side // 2
    region = BoundingBox((c - 8,) * 3, (c + 7,) * 3)
    sampler = SamplerConfig(redraw_prob=1.0)
    return {
        "train": meter_peak(lambda: train_hilo(
            [scan], CFG, TrainingQueue(capacity=1), epochs=1, max_steps=1, sampler=sampler,
            pyramid_sampling="volume", seed=0)),
        "segment": meter_peak(lambda: segment_volume(vol, model, CFG, region, threads=1)),
        "onet_encode": meter_peak(lambda: onet_encode(vol, ONET, OnetModel(ONET, seed=0))),
    }


def test_window_pyramid_peak_does_not_depend_on_scan_size():
    small, large = peaks(32), peaks(96)
    assert small["train"] > 0 and small["segment"] > 0
    assert large["train"] == small["train"]
    assert large["segment"] == small["segment"]
    # 27x the voxels; the pooled scan and the encoder activations grow with it
    assert large["onet_encode"] > 10 * small["onet_encode"]


def _one_window_region(side: int) -> BoundingBox:
    c = side // 2
    return BoundingBox((c - 8,) * 3, (c + 7,) * 3)


def test_deep_pyramid_segment_peak_is_pinned():
    """Segmenting one window with the deep-pyramid model peaks at the same
    bytes at two scan sizes: in a convolution of the last level's first
    encoder block, at its skip input, the convolution's input and its
    output (16³ × 6 float32 each), the 9 padded planes of one 7-plane chunk
    (9·18·18·6·4 = 69,984 B), plus the two finished encodings (8³ × 6
    float32 each). The level inputs are dead by then, each after its stem.
    A whole padded copy of a conv input, a bias or norm shift added into a
    fresh array, conv1's output alive past norm2's standardization, or a
    level input or encoding kept longer than its last use would raise it."""
    model = HiLoModel(DEEP, seed=0)
    got = []
    for side in (32, 96):
        vol = generate_synthetic_one(SynthConfig(dims=(side,) * 3, seed=1), 0)[0]
        got.append(meter_peak(
            lambda: segment_volume(vol, model, DEEP, _one_window_region(side), threads=1)))
    assert got == [389_472, 389_472]


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_each_pyramid_level_costs_one_encoding(levels):
    """Each level adds one finished 8³ × 6 float32 encoding (12,288 B) to the
    segmentation peak, and nothing else: its input, stem output and block
    activations are dead before the next level's encoder runs. The rest is
    the peak of one encoder block: three 16³ × 6 float32 activations and
    one chunk of padded planes (69,984 B)."""
    cfg = dataclasses.replace(DEEP, levels=levels, downsampling_factor=4 if levels < 4 else 2)
    model = HiLoModel(cfg, seed=0)
    vol = generate_synthetic_one(SynthConfig(dims=(32,) * 3, seed=1), 0)[0]
    peak = meter_peak(lambda: segment_volume(vol, model, cfg, _one_window_region(32), threads=1))
    assert peak == 3 * 16**3 * 6 * 4 + 69_984 + (levels - 1) * 8**3 * 6 * 4


def _train_peak_above_params(cfg: HiLoConfig) -> int:
    """Meter peak of one training step in two micro-batches, less every
    parameter and its gradient."""
    scan = generate_synthetic_one(SynthConfig(dims=(32,) * 3, seed=1), 0)
    params = sum(p.data.nbytes for p in HiLoModel(cfg).parameters())
    peak = meter_peak(lambda: train_hilo(
        [scan], cfg, TrainingQueue(capacity=1), epochs=1, max_steps=1, micro_batch=2,
        sampler=SamplerConfig(redraw_prob=1.0), pyramid_sampling="volume", seed=0))
    return peak - 2 * params


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_each_pyramid_level_costs_one_encoding_in_training(levels):
    """A training step rebuilds each level encoder's tape, and the grid
    decoder's pooled blocks' tape, in the backward (``F.recompute``). So
    until then a level keeps only its input, a view of the host batch that
    the meter does not count, and its encoding, in the concat that the
    pooled blocks' recompute node keeps: one 4³ × 2 float32 encoding
    (512 B) per level and micro-batch item. The step peaks in the second
    micro-batch's backward, at the decoder's full-resolution last block:
    111,424 B at every L, next to every parameter and its gradient. A
    first decoder block that kept its tape would add its standardized
    input and its activation, L·2 channels each: 3 encodings per level."""
    cfg = dataclasses.replace(TRAIN, levels=levels)
    assert _train_peak_above_params(cfg) == 111_424 + levels * 2 * 4**3 * 2 * 4


@pytest.mark.parametrize("blocks", [2, 3, 4, 6])
def test_pooled_decoder_depth_costs_only_parameters(blocks):
    """The grid decoder's blocks before the upsampling run through one
    recompute, so a deeper pooled segment adds its parameters and their
    gradients to a training step's peak and no activation. A pooled block
    that kept its tape would add 4 activations of 4³ × 2 float32 per
    micro-batch item, 4,096 B over the two items."""
    cfg = dataclasses.replace(TRAIN, cnn_decoder_blocks=blocks)
    assert _train_peak_above_params(cfg) == 112_448


def test_benchmark_training_peak_is_pinned():
    """Two steps of the benchmark's pyramid trainer (default ``HiLoConfig``:
    windows of 16, 2 levels, batch 16, 7 decoder blocks; micro-batch 2,
    hardness queue of 2) peak at the same bytes at two scan sizes: one
    full-resolution decoder block's backward next to every parameter, its
    gradient and Adam's two moments, plus one 8³ × 6 float32 encoding per
    level and micro-batch item. A pooled decoder block or a level encoder
    that kept its tape until the backward would raise it."""
    got = []
    for side in (32, 48):
        scans = [generate_synthetic_one(SynthConfig(dims=(side,) * 3, seed=1), i)
                 for i in range(2)]
        got.append(meter_peak(lambda: train_hilo(
            scans, HiLoConfig(), TrainingQueue(capacity=2, policy="hardness"), epochs=2,
            max_steps=2, micro_batch=2, sampler=SamplerConfig(redraw_prob=1.0),
            pyramid_sampling="volume", seed=1)))
    assert got == [2_618_032, 2_618_032]


# the occupancy trainer's decoder at a small width: 101 queries and the 27
# reference points make each per-point activation (2, 128, 16) float32
ONET_TRAIN = OnetConfig(input_downsample=4, encoder_blocks=1, base_channels=2, latent_dim=8,
                        decoder_hidden=16)


@pytest.mark.parametrize("conditioning", ["cbn", "concat"])
def test_each_decoder_block_costs_its_input_in_training(conditioning):
    """An occupancy training step rebuilds each decoder block's tape in its
    backward (``F.recompute``), so until then a block keeps only its input,
    in its recompute node. The step peaks while the last block's tape is
    rebuilt; no block holds a gradient yet. Each further block adds its
    parameters and its (2, 128, 16) float32 input and, under ``"cbn"``, its
    four (2, 1, 16) affines and the four (2, 16) hidden activations of the
    conditioning stacks that compute them, which stay on the outer tape.
    Under ``"cbn"`` with one block that rebuild peaks 7,976 B below the
    encoder's rebuilt backward, at the slab columns of a convolution's
    input-gradient pass, so the second block adds 18,200 B, not 26,176 B.
    Before recompute, each block added four (2, 128, 16) arrays: 75,072 B
    under ``"cbn"`` and 67,904 B under ``"concat"``."""
    scans = [generate_synthetic_one(SynthConfig(dims=(32,) * 3, seed=1), i) for i in (0, 1)]
    got = []
    for blocks in (1, 2, 3, 4):
        cfg = dataclasses.replace(ONET_TRAIN, conditioning=conditioning, decoder_blocks=blocks)
        got.append(meter_peak(lambda: train_superres_onet(
            scans, cfg, SamplerConfig(n_train_coords=101), epochs=1, batch=2)))
    block = OnetModel(dataclasses.replace(ONET_TRAIN, conditioning=conditioning)).decoder.blocks[0]
    params = sum(p.data.nbytes for p in block.parameters())
    per_block = params + 2 * 128 * 16 * 4 + (8 * 2 * 16 * 4 if conditioning == "cbn" else 0)
    assert per_block == {"cbn": 26_176, "concat": 18_752}[conditioning]
    first = {"cbn": 138_200, "concat": 135_832}[conditioning]
    encoder_above = {"cbn": 7_976, "concat": 0}[conditioning]
    assert got == [first + encoder_above] + [first + k * per_block for k in range(1, 4)]


@pytest.mark.parametrize("blocks", [1, 2, 3, 6])
def test_occupancy_encoder_depth_costs_only_parameters(blocks):
    """The occupancy encoder runs through one ``F.recompute`` on the volume
    batch, so until the backward it keeps that batch, a view of the host
    batch that the meter does not count, and none of its activations. A
    step of two micro-batches that peaks in the decoder, in the second
    micro-batch's rebuild of the last block, then holds the same bytes
    next to every parameter and its gradient at any encoder depth. A kept
    encoder tape would add each block's activations: 2,304 to 7,552 B above
    one block at these depths."""
    cfg = dataclasses.replace(ONET_TRAIN, encoder_blocks=blocks, decoder_blocks=2)
    scans = [generate_synthetic_one(SynthConfig(dims=(32,) * 3, seed=1), i) for i in range(4)]
    params = sum(p.data.nbytes for p in OnetModel(cfg).parameters())
    peak = meter_peak(lambda: train_superres_onet(
        scans, cfg, SamplerConfig(n_train_coords=101), epochs=1, batch=4, micro_batch=2))
    assert peak - 2 * params == 136_768


def test_benchmark_occupancy_training_peak_is_pinned():
    """Two steps of the benchmark's occupancy trainer (default
    ``OnetConfig``: batch 8, micro-batch 2, 2^12 points) peak at the same
    bytes at two scan sizes. The peak sits in the second step's rebuilt
    forward of the last decoder block, at a leaky ReLU's output: eleven
    (2, 4123, 64) float32 arrays are alive, next to every parameter, its
    gradient and Adam's two moments. The encoder's tape, kept until the backward, put
    its activations at the pooled grid on top, so the peak grew with the
    scan: 37,644,572 B at 32³ and 40,970,652 B at the benchmark's default
    dims. A decoder block's residual sum in its own array, or an
    elementwise backward that allocates its input gradient, would raise it.
    The benchmark's ``onet-sr`` ``peak_bytes`` reads this figure plus the
    512 B latent that each earlier operation of its timed pass keeps until
    the checks: 35,487,640 B after 21 operations at seed 1."""
    got = []
    for dims in ((32, 32, 32), (64, 48, 64)):
        scans = [generate_synthetic_one(SynthConfig(dims=dims, seed=1), i) for i in range(8)]
        got.append(meter_peak(lambda: train_superres_onet(
            scans, OnetConfig(), SamplerConfig(n_train_coords=2**12), epochs=2, batch=8,
            micro_batch=2, seed=1)))
    assert got == [35_476_888, 35_476_888]
