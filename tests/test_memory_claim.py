"""The memory claim behind window pyramids: the byte meter's peak for one
training step and for segmenting a fixed region depends on the window
configuration, not on the scan's size. The occupancy encoder, which sees
the whole pooled scan, is measured next to it to show that the meter does
see scan size where a model depends on it."""

import gc

from hiloseg.data_io import SynthConfig, generate_synthetic_one
from hiloseg.inference import BoundingBox, segment_volume
from hiloseg.models import HiLoConfig, HiLoModel, OnetConfig, OnetModel, train_hilo
from hiloseg.models.onet import onet_encode
from hiloseg.nn.tensor import memory_meter
from hiloseg.queue import TrainingQueue
from hiloseg.sampling import SamplerConfig

CFG = HiLoConfig(window_size=8, downsampling_factor=2, levels=3, encoder_blocks=1,
                 cnn_decoder_blocks=1, base_channels=2, batch_size=2)
ONET = OnetConfig(input_downsample=4, encoder_blocks=1, decoder_blocks=1, base_channels=2,
                  latent_dim=8, decoder_hidden=8)


def meter_peak(fn) -> int:
    """Byte-meter peak while ``fn`` runs, above the level at its start."""
    gc.collect()
    memory_meter.reset_peak()
    base = memory_meter.current
    fn()
    return memory_meter.peak - base


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
