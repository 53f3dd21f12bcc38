"""SHA-256 digests of what both trainers and window inference return, over
a fixed run matrix.

Not a tier-1 test (no ``test_`` prefix): it prints one line per trained
state, one per metric and one with the byte meter's peak of each run, one
with the sequence of queue evictions of each pyramid-trainer run, then
three per segmentation (its labels, their sampled IoU and the byte
meter's peak over it), so two trees can be compared by diffing their
output. A refactor of the training
or inference paths that keeps results byte-identical prints the same
lines; a change to activation lifetimes moves only the peak lines, and a
change to when the loader pushes moves the eviction lines. Run it
from a tree's root:

    PYTHONPATH=src python3 tests/trainer_digests.py > digests.txt

The matrix covers the occupancy trainer with both conditionings, high- and
low-resolution labels, float32 and float64 and micro-batches 1, 2 and 4,
plus one run of 512 points whose step peaks in the decoder, and the
pyramid trainer with both decoders, both pyramid draws and both
queue policies, plus a grid decoder of three blocks, every run with a
validation set; one run of each trainer
reads its instances from manifest records instead of in-memory pairs.
Inference covers ``segment_volume`` and ``sampled_iou`` of its labels,
for both decoders at two and three pyramid levels, on models whose
zero-initialized output head gets random weights so the labels hold both
classes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
from conftest import meter_peak, recording_evictions

from hiloseg.data_io import SynthConfig, load_manifest, write_dataset
from hiloseg.inference import sampled_iou, segment_volume
from hiloseg.models import HiLoConfig, HiLoModel, OnetConfig, train_hilo, train_superres_onet
from hiloseg.queue import TrainingQueue
from hiloseg.sampling import SamplerConfig
from hiloseg.voxel import LabelVolume, VoxelVolume

SAMPLER = SamplerConfig(n_train_coords=128, n_hilo_coords=64)

ONET = OnetConfig(input_downsample=2, encoder_blocks=2, decoder_blocks=2, base_channels=4,
                  latent_dim=16, decoder_hidden=8)

HILO = HiLoConfig(window_size=8, levels=2, encoder_blocks=2, cnn_decoder_blocks=2,
                  onet_decoder_blocks=2, base_channels=2, decoder_hidden=8, batch_size=4)


def _instance(dims, boxes, seed):
    """Noise volume with bright labeled boxes, each given as (lo, hi)."""
    rng = np.random.default_rng(seed)
    data = rng.random(dims, dtype=np.float32) * 0.2
    lab = np.zeros(dims, dtype=np.uint8)
    for lo, hi in boxes:
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        lab[box] = 1
        data[box] += 0.7
    return VoxelVolume(np.clip(data, 0.0, 1.0)), LabelVolume(lab)


def _onet_pairs(n, seed0):
    return [_instance((16, 16, 16), [((2 + k % 3,) * 3, (9 + k % 3, 8 + k % 3, 10 + k % 3))],
                      seed0 + k) for k in range(n)]


def _hilo_pairs(n, seed0):
    """Two small boxes in opposite corners: the labeled object's bounding box
    is mostly air, so the "volume" draw redraws where "bb" does not."""
    return [_instance((24, 20, 22), [((2 + k % 3,) * 3, (5 + k % 3,) * 3),
                                     ((16, 12, 14), (20, 17, 19))], seed0 + k)
            for k in range(n)]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


def _lines(name, state, metrics):
    yield name, "state", _digest(*(
        part for k in sorted(state)
        for part in (k, str(state[k].dtype), state[k].shape, np.ascontiguousarray(state[k]).tobytes())
    ))
    for key, value in metrics.items():
        yield name, f"metrics.{key}", _digest(value)


def _onet_runs(records):
    train, val = _onet_pairs(5, 0), _onet_pairs(2, 20)
    runs = [
        ("onet-cbn-high-f32-mb2", ONET, np.float32, 2),
        ("onet-concat-high-f32-mb2", dataclasses.replace(ONET, conditioning="concat"), np.float32, 2),
        ("onet-cbn-low-f32-mb2", dataclasses.replace(ONET, coord_resolution="low"), np.float32, 2),
        ("onet-cbn-high-f64-mb2", ONET, np.float64, 2),
        ("onet-cbn-high-f32-mb1", ONET, np.float32, 1),
        ("onet-cbn-high-f32-mb4", ONET, np.float32, 4),
        ("onet-concat-low-f64-mb1",
         dataclasses.replace(ONET, conditioning="concat", coord_resolution="low"), np.float64, 1),
    ]
    for name, cfg, dtype, micro_batch in runs:
        yield name, partial(train_superres_onet, train, cfg, SAMPLER, epochs=3, batch=4,
                            val_dataset=val, lr=0.01, micro_batch=micro_batch, seed=3,
                            dtype=dtype), None
    # 16 hidden channels and 512 points: this step peaks in the decoder, the
    # others in the encoder's rebuilt backward
    yield "onet-cbn-high-f32-mb2-p512", partial(
        train_superres_onet, train, dataclasses.replace(ONET, decoder_hidden=16),
        dataclasses.replace(SAMPLER, n_train_coords=512), epochs=3, batch=4, val_dataset=val,
        lr=0.01, micro_batch=2, seed=3), None
    yield "onet-records", partial(train_superres_onet, records[:4], ONET, SAMPLER, epochs=2,
                                  batch=2, val_dataset=records[4:], lr=0.01, seed=4), None


def _hilo_runs(records):
    train, val = _hilo_pairs(4, 50), _hilo_pairs(2, 80)
    for decoder in ("cnn", "onet"):
        cfg = dataclasses.replace(HILO, decoder=decoder)
        for sampling in ("bb", "volume"):
            for policy in ("fifo", "hardness"):
                queue = TrainingQueue(capacity=8, policy=policy)
                yield f"hilo-{decoder}-{sampling}-{policy}", partial(
                    train_hilo, train, cfg, queue, epochs=20, sampler=SAMPLER, val_dataset=val,
                    lr=0.01, validate_every=3, seed=5, pyramid_sampling=sampling, max_steps=9,
                ), recording_evictions(queue)
    # three grid-decoder blocks, so more than one runs before the upsampling
    queue = TrainingQueue(capacity=8, policy="hardness")
    yield "hilo-cnn3-volume-hardness", partial(
        train_hilo, train, dataclasses.replace(HILO, cnn_decoder_blocks=3), queue, epochs=20,
        sampler=SAMPLER, val_dataset=val, lr=0.01, validate_every=3, seed=5,
        pyramid_sampling="volume", max_steps=9,
    ), recording_evictions(queue)
    queue = TrainingQueue(capacity=8, policy="hardness")
    yield "hilo-records", partial(
        train_hilo, records[:4], HILO, queue, epochs=20,
        sampler=SAMPLER, val_dataset=records[4:], lr=0.01, validate_every=3, seed=6,
        pyramid_sampling="volume", max_steps=6,
    ), recording_evictions(queue)


def _inference_lines():
    vol, truth = _instance((30, 26, 28), [((4, 5, 6), (12, 11, 13)),
                                          ((18, 15, 16), (25, 22, 24))], 90)
    for decoder in ("cnn", "onet"):
        for levels in (2, 3):
            cfg = dataclasses.replace(HILO, decoder=decoder, levels=levels)
            model = HiLoModel(cfg, seed=8)
            rng = np.random.default_rng(9)
            state = model.state_dict()
            for key in state:
                if ".head." in key:
                    state[key] = rng.normal(0.0, 0.5, size=state[key].shape).astype(np.float32)
            model.load_state_dict(state)
            result = []
            peak = meter_peak(lambda: result.append(segment_volume(vol, model, cfg)))
            pred = result[0].data
            iou = sampled_iou(lambda c: pred[c[:, 0], c[:, 1], c[:, 2]], truth, n=4096, seed=1)
            name = f"segment-{decoder}-L{levels}"
            yield name, "labels", _digest(pred.shape, pred.tobytes())
            yield name, "sampled_iou", _digest(iou)
            yield name, "meter_peak", str(peak)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(tmp, SynthConfig(dims=(16, 16, 16), seed=2), 6)
        records = load_manifest(Path(tmp) / "manifest.tsv").paths()
        for runs in (_onet_runs(records), _hilo_runs(records)):
            for name, run, evicted in runs:
                result = []
                peak = meter_peak(lambda: result.append(run()))
                for line in _lines(name, *result[0]):
                    print(" ".join(line))
                print(name, "meter_peak", peak)
                if evicted is not None:
                    print(name, "evictions", _digest(evicted))
                sys.stdout.flush()
    for line in _inference_lines():
        print(" ".join(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
