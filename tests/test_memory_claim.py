"""The memory claim behind window pyramids: the byte meter's peak for one
training step and for segmenting a fixed region depends on the window
configuration, not on the scan's size. The occupancy encoder, which sees
the whole pooled scan, is measured next to it to show that the meter does
see scan size where a model depends on it. Last, tracemalloc bounds what
the meter misses."""

import dataclasses
import functools
import gc
import tracemalloc

import numpy as np
import pytest
from conftest import backward_sum, held_arguments, meter_peak

from hiloseg import nn
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
from hiloseg.models.hilo import hilo_forward
from hiloseg.models.onet import onet_encode
from hiloseg.nn import functional as F
from hiloseg.nn import layers, optim, tensor
from hiloseg.queue import TrainingQueue
from hiloseg.sampling import SamplerConfig
from hiloseg.voxel import build_pyramid

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


# Each run below is a function of no arguments over inputs built beforehand,
# measured with ``meter_peak``; tests/meter_peak_report.py runs the same.


def _scans(dims, n: int = 1) -> list:
    return [generate_synthetic_one(SynthConfig(dims=dims, seed=1), i) for i in range(n)]


def _one_window_region(side: int) -> BoundingBox:
    c = side // 2
    return BoundingBox((c - 8,) * 3, (c + 7,) * 3)


def training_step(cfg: HiLoConfig, side: int = 32):
    """One pyramid training step, in two micro-batches, on one scan."""
    scans = _scans((side,) * 3)
    return lambda: train_hilo(
        scans, cfg, TrainingQueue(capacity=1), epochs=1, max_steps=1,
        sampler=SamplerConfig(redraw_prob=1.0), pyramid_sampling="volume", seed=0)


def window_segmentation(cfg: HiLoConfig, side: int = 32):
    """``segment_volume`` over one window of a scan."""
    model, vol = HiLoModel(cfg, seed=0), _scans((side,) * 3)[0][0]
    return lambda: segment_volume(vol, model, cfg, _one_window_region(side))


def occupancy_encoding(side: int):
    vol = _scans((side,) * 3)[0][0]
    return lambda: onet_encode(vol, ONET, OnetModel(ONET, seed=0))


def benchmark_training(side: int):
    """Two steps of the benchmark's pyramid trainer: default ``HiLoConfig``
    (windows of 16, 2 levels, batch 16, 7 decoder blocks), micro-batch 2,
    hardness queue of 2."""
    scans = _scans((side,) * 3, 2)
    return lambda: train_hilo(
        scans, HiLoConfig(), TrainingQueue(capacity=2, policy="hardness"), epochs=2,
        max_steps=2, micro_batch=2, sampler=SamplerConfig(redraw_prob=1.0),
        pyramid_sampling="volume", seed=1)


def occupancy_training(cfg: OnetConfig, n: int):
    """One occupancy training step on ``n`` scans of 32³, 101 points each, in
    micro-batches of 2."""
    scans = _scans((32,) * 3, n)
    return lambda: train_superres_onet(
        scans, cfg, SamplerConfig(n_train_coords=101), epochs=1, batch=n)


def benchmark_occupancy_training(dims):
    """Two steps of the benchmark's occupancy trainer: default ``OnetConfig``,
    batch 8, micro-batch 2, 2^12 points."""
    scans = _scans(dims, 8)
    return lambda: train_superres_onet(
        scans, OnetConfig(), SamplerConfig(n_train_coords=2**12), epochs=2, batch=8,
        micro_batch=2, seed=1)


def peaks(side: int) -> dict[str, int]:
    return {
        "train": meter_peak(training_step(CFG, side)),
        "segment": meter_peak(window_segmentation(CFG, side)),
        "onet_encode": meter_peak(occupancy_encoding(side)),
    }


def test_window_pyramid_peak_does_not_depend_on_scan_size():
    small, large = peaks(32), peaks(96)
    assert small["train"] > 0 and small["segment"] > 0
    assert large["train"] == small["train"]
    assert large["segment"] == small["segment"]
    # 27x the voxels; the pooled scan and the encoder activations grow with it
    assert large["onet_encode"] > 10 * small["onet_encode"]


def test_deep_pyramid_segment_peak_is_pinned():
    """Segmenting one window with the deep-pyramid model peaks at the same
    bytes at two scan sizes: in a convolution of the last level's first
    encoder block, at its skip input and the one activation it writes over
    (16³ × 6 float32 each), the 9 padded planes of one 7-plane chunk
    (9·18·18·6·4 = 69,984 B) and the input plane saved for the next chunk
    (16² × 6 float32), plus the two finished encodings (8³ × 6 float32
    each). The level inputs are dead by then, each after its stem. A whole
    padded copy of a conv input, a bias or norm shift added into a fresh
    array, an op of the block that allocates its result instead of writing
    over its operand, two chunks' saved planes alive together, or a level
    input or encoding kept longer than its last use would raise it."""
    got = [meter_peak(window_segmentation(DEEP, side)) for side in (32, 96)]
    peak = 2 * 16**3 * 6 * 4 + 69_984 + 16**2 * 6 * 4 + 2 * 8**3 * 6 * 4
    assert got == [peak, peak] == [297_312, 297_312]


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_each_pyramid_level_costs_one_encoding(levels):
    """Each level adds one finished 8³ × 6 float32 encoding (12,288 B) to the
    segmentation peak, and nothing else: its input, stem output and block
    activations are dead before the next level's encoder runs. The rest is
    the peak of one encoder block: two 16³ × 6 float32 activations, the
    skip input and the one its ops write over, one chunk of padded planes
    (69,984 B) and one saved input plane (16² × 6 float32)."""
    cfg = dataclasses.replace(DEEP, levels=levels, downsampling_factor=4 if levels < 4 else 2)
    peak = meter_peak(window_segmentation(cfg))
    assert peak == 2 * 16**3 * 6 * 4 + 69_984 + 16**2 * 6 * 4 + (levels - 1) * 8**3 * 6 * 4


def _train_peak_above_params(cfg: HiLoConfig) -> int:
    """Meter peak of one training step in two micro-batches, less every
    parameter and its gradient."""
    params = sum(p.data.nbytes for p in HiLoModel(cfg).parameters())
    return meter_peak(training_step(cfg)) - 2 * params


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_each_pyramid_level_costs_one_encoding_in_training(levels):
    """A training step rebuilds each level encoder's tape, and the grid
    decoder's pooled blocks' tape, in the backward (``F.recompute``). So
    until then a level keeps only its input, a view of the host batch that
    the meter does not count, and its encoding, in the concat that the
    pooled blocks' recompute node keeps: one 4³ × 2 float32 encoding
    (512 B) per level and micro-batch item. The step peaks in the second
    micro-batch's backward, at the decoder's full-resolution last block, in
    conv2's input-gradient pass: 103,232 B at every L, next to every
    parameter and its gradient. They are six (2, 8³, 2) float32 arrays,
    one chunk of input-gradient columns (640 × 18) and its 10 padded
    planes (10² × 2); a window of 8 is one chunk, so no plane is saved.
    An input gradient in an array of its own, not written over conv2's
    output gradient, would add a seventh (8,192 B). A first decoder block
    that kept its tape would add its standardized input and its
    activation, L·2 channels each: 3 encodings per level."""
    cfg = dataclasses.replace(TRAIN, levels=levels)
    assert _train_peak_above_params(cfg) == 103_232 + levels * 2 * 4**3 * 2 * 4


@pytest.mark.parametrize("blocks", [2, 3, 4, 6])
def test_pooled_decoder_depth_costs_only_parameters(blocks):
    """The grid decoder's blocks before the upsampling run through one
    recompute, so a deeper pooled segment adds its parameters and their
    gradients to a training step's peak and no activation. A pooled block
    that kept its tape would add 4 activations of 4³ × 2 float32 per
    micro-batch item, 4,096 B over the two items. The peak is the one of
    ``test_each_pyramid_level_costs_one_encoding_in_training`` at L = 1."""
    cfg = dataclasses.replace(TRAIN, cnn_decoder_blocks=blocks)
    assert _train_peak_above_params(cfg) == 104_256


def test_benchmark_training_peak_is_pinned():
    """Two steps of the benchmark's pyramid trainer (default ``HiLoConfig``:
    windows of 16, 2 levels, batch 16, 7 decoder blocks; micro-batch 2,
    hardness queue of 2) peak at the same bytes at two scan sizes: one
    full-resolution decoder block's backward next to every parameter, its
    gradient and Adam's two moments, plus one 8³ × 6 float32 encoding per
    level and micro-batch item. The peak sits in conv2's input-gradient
    pass, which writes over conv2's output gradient: six (2, 16³, 6)
    float32 arrays are alive, next to one chunk of input-gradient columns
    (2,304 × 54), its 9 padded planes (18² × 6) and the one input plane
    (16² × 6) saved for the next chunk. An input gradient in an array of
    its own would make seven (2,618,032 B). A pooled decoder block or a
    level encoder that kept its tape until the backward would raise it."""
    got = [meter_peak(benchmark_training(side)) for side in (32, 48)]
    assert got == [2_427_568, 2_427_568]


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
    The encoder's rebuilt backward peaks below that rebuild, under ``"cbn"``
    by 216 B, at the slab columns of a convolution's input-gradient pass;
    with that input gradient in an array of its own, not written over the
    output gradient, it peaked 7,976 B above the one-block rebuild.
    Before recompute, each block added four (2, 128, 16) arrays: 75,072 B
    under ``"cbn"`` and 67,904 B under ``"concat"``."""
    got = [meter_peak(occupancy_training(
        dataclasses.replace(ONET_TRAIN, conditioning=conditioning, decoder_blocks=blocks), 2))
        for blocks in (1, 2, 3, 4)]
    block = OnetModel(dataclasses.replace(ONET_TRAIN, conditioning=conditioning)).decoder.blocks[0]
    params = sum(p.data.nbytes for p in block.parameters())
    per_block = params + 2 * 128 * 16 * 4 + (8 * 2 * 16 * 4 if conditioning == "cbn" else 0)
    assert per_block == {"cbn": 26_176, "concat": 18_752}[conditioning]
    first = {"cbn": 138_200, "concat": 135_832}[conditioning]
    assert got == [first + k * per_block for k in range(4)]


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
    params = sum(p.data.nbytes for p in OnetModel(cfg).parameters())
    assert meter_peak(occupancy_training(cfg, 4)) - 2 * params == 136_768


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
    got = [meter_peak(benchmark_occupancy_training(dims))
           for dims in ((32, 32, 32), (64, 48, 64))]
    assert got == [35_476_888, 35_476_888]


def test_occupancy_encoding_peak_is_pinned():
    """Encoding one 32³ scan, pooled by 4 to 8³, peaks in a convolution of
    the encoder's first block, at the block's input and the one activation
    it writes over (8³ × 2 float32 each) and the 10 padded planes of its
    one chunk (10³ × 2 float32), next to the model's parameters, which the
    run builds. The pooled input tensor (8³ float32, 2,048 B) is dead by
    then: the encoder hands it over after its stem."""
    params = sum(p.data.nbytes for p in OnetModel(ONET).parameters())
    assert meter_peak(occupancy_encoding(32)) - params == 2 * 8**3 * 2 * 4 + 10**3 * 2 * 4


# The pinned figures above, each measured again with every model-level call
# keeping its arguments until it returns (``held_arguments``): an array dies
# where the code hands it over, so no figure rests on how a call is spelled.
HELD_PINS = {
    "scan-size": test_window_pyramid_peak_does_not_depend_on_scan_size,
    "deep-segment": test_deep_pyramid_segment_peak_is_pinned,
    **{f"segment-levels-{n}": functools.partial(test_each_pyramid_level_costs_one_encoding, n)
       for n in (1, 2, 3, 4)},
    **{f"train-levels-{n}":
       functools.partial(test_each_pyramid_level_costs_one_encoding_in_training, n)
       for n in (1, 2, 3, 4)},
    **{f"train-pooled-blocks-{n}":
       functools.partial(test_pooled_decoder_depth_costs_only_parameters, n)
       for n in (2, 3, 4, 6)},
    "bench-hilo-train": test_benchmark_training_peak_is_pinned,
    **{f"onet-train-{c}": functools.partial(test_each_decoder_block_costs_its_input_in_training, c)
       for c in ("cbn", "concat")},
    **{f"onet-train-encoder-blocks-{n}":
       functools.partial(test_occupancy_encoder_depth_costs_only_parameters, n)
       for n in (1, 2, 3, 6)},
    "bench-onet-sr": test_benchmark_occupancy_training_peak_is_pinned,
    "onet-encode": test_occupancy_encoding_peak_is_pinned,
}


@pytest.mark.parametrize("pin", HELD_PINS)
def test_pinned_peak_holds_when_calls_keep_their_arguments(pin):
    with held_arguments():
        HELD_PINS[pin]()


def _unmetered_peak(monkeypatch, make_run) -> int:
    """tracemalloc's peak minus the byte meter's over the run that
    ``make_run`` builds, on a meter of its own: its table of arrays starts
    empty, so the table's own growth is the same in any test order. The
    second of two runs counts; the first warms numpy's and the
    interpreter's caches."""
    for _ in range(2):
        run = make_run()  # inputs built outside both measures
        meter = tensor._MemoryMeter()
        for module in (tensor, F, layers, optim):
            monkeypatch.setattr(module, "memory_meter", meter)
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        try:
            run()
            traced = tracemalloc.get_traced_memory()[1] - start
        finally:
            if started:
                tracemalloc.stop()
    return traced - meter.peak


def test_meter_misses_only_the_named_conv_scratch(monkeypatch):
    """Everything the meter counts, tracemalloc counts too, so its peak is
    never below the meter's; the gap is what the meter misses. The nn
    core leaves unmetered only conv3d's forward and weight-gradient slab
    columns (one chunk at a time), its per-item kernel gradient ``dw`` and
    its flipped kernel, next to Python objects. Each run's gap is bounded
    by the scratch of that kind alive at its peak plus a stated slack for
    Python objects (measured: 20,240 B and 11,176 B), and an array the
    size of an activation that skipped the meter would break the bound.

    A no-tape ``hilo_forward`` at the deep-pyramid config peaks while a
    conv's forward columns (497,664 B) are copied next to its padded planes
    and misses those columns: slack 32 KiB, one activation 98,304 B. A
    conv3d forward and backward at (2, 16³, 6 → 6) peaks in the
    input-gradient pass, whose columns are metered, with the flipped
    kernel (3,888 B) alive and the weight-gradient pass's columns and
    ``dw`` dead; that pass, with them, traces one saved input plane
    (6,144 B) less than the input-gradient pass meters. Slack 14 KiB, so
    the bound breaks if the saved plane skips the meter."""
    model = HiLoModel(DEEP, seed=0)
    vol = generate_synthetic_one(SynthConfig(dims=(32,) * 3, seed=1), 0)[0]
    pyr = build_pyramid(vol, (16, 16, 16), DEEP.window_size, DEEP.downsampling_factor,
                        DEEP.levels)
    chunk = max(d1 - d0 for d0, d1 in F._plane_chunks(16, 16, 16, 3, 6, 4))
    columns = (chunk + 2) * 16 * 16 * 9 * 6 * 4  # slab rows of k² · C entries
    assert columns == 497_664 <= F.CONV_SCRATCH_BYTES
    gap = _unmetered_peak(monkeypatch, lambda: lambda: hilo_forward(pyr, DEEP, model))
    assert 0 <= gap <= columns + (32 << 10)

    rng = np.random.default_rng(0)
    xd = rng.normal(size=(2, 16, 16, 16, 6)).astype(np.float32)
    wd = rng.normal(size=(3, 3, 3, 6, 6)).astype(np.float32)

    def make_conv():
        x, w = nn.Tensor(xd, requires_grad=True), nn.parameter(wd.copy())
        return lambda: backward_sum(F.conv3d(x, w, padding=1))

    gap = _unmetered_peak(monkeypatch, make_conv)
    assert 0 <= gap <= wd.nbytes + (14 << 10)
