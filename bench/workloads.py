"""The three benchmark workloads: set-up, one timed operation, output checks.

Every workload is a closed loop with one caller. Its timed phase repeats one
operation until the run's time is up:

* ``hilo-train``: one ``train_hilo`` call of a few optimizer steps, fed by a
  small hardness queue whose loader thread reads the scans from disk. The
  conv3d backward and the tape dominate; pyramids, queue and tiling are
  small. Pyramid centers come from the redraw sampler with
  ``redraw_prob=1``, so every level-0 window holds gun voxels: with
  bounding-box sampling a micro-batch of two all-air windows gives every
  batch-norm channel zero variance, and the gradients overflow to NaN
  within a few steps on some seeds (seed 4 does at step 2).
* ``hilo-segment``: ``segment_volume`` over one test scan's gun region with
  a deep-pyramid model, one tile at a time. Forward only, no tape, and
  ``build_pyramid`` takes most of each tile.
* ``onet-sr``: one cycle of the occupancy pipeline: ``train_superres_onet``
  for two steps, then ``onet_encode`` + ``mise_evaluate`` of the next test
  scan. Per-point MLP work on (B, points, 64) arrays and MISE bookkeeping.

Segmentation and MISE weights are a seeded state dict (every all-zero entry
replaced by seeded values, so outputs depend on the scan) that goes through
a checkpoint save and load during set-up. The timed training never produces
them, so a change in training arithmetic cannot change how much work
segmentation or MISE does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from hiloseg import data_io, inference, voxel
from hiloseg.config import config_text
from hiloseg.inference import BoundingBox, plan_tiling
from hiloseg.models import hilo, onet
from hiloseg.models import train as train_mod
from hiloseg.models.hilo import HiLoConfig, HiLoModel
from hiloseg.models.onet import OnetConfig, OnetModel
from hiloseg.nn import checkpoint
from hiloseg.queue import TrainingQueue
from hiloseg.rng import make_rng
from hiloseg.sampling import SamplerConfig

# Fixed weights: the run seed varies the scans, never the model.
WEIGHT_SEED = 3
WEIGHT_SCALE = 0.1
REGION_MARGIN = 8
# Least share of a fixed voxel sample on which MISE must match a direct decode.
AGREEMENT_BOUND = 0.98


@dataclass(frozen=True)
class Spec:
    """Sizes of one benchmark run; ``SPEC`` is the benchmark, ``TINY`` a smoke test."""

    dims: tuple[int, int, int] = (160, 104, 154)
    train_scans: int = 8
    segment_scans: int = 4
    mise_scans: int = 2
    hilo_train: HiLoConfig = HiLoConfig()
    hilo_segment: HiLoConfig = HiLoConfig(downsampling_factor=4, levels=3)
    onet: OnetConfig = OnetConfig()
    train_steps: int = 2
    queue_capacity: int = 2
    micro_batch: int = 2
    onet_batch: int = 8
    onet_steps: int = 2
    onet_coords: int = 2**12
    mise_factor: int = 8
    check_tiles: int = 3
    agreement_points: int = 4096
    setup_repeats: int = 15
    traced_ops: int = 2  # operations of the traced run, each run untraced and traced
    # Largest share of the traced wall time that no layer's probe may cover
    # (the trainers' own loops and the benchmark's wrapper); ≈0.01 measured.
    unattributed_max: float = 0.05


SPEC = Spec()

TINY = Spec(
    dims=(24, 20, 22),
    train_scans=3,
    segment_scans=2,
    mise_scans=1,
    hilo_train=HiLoConfig(window_size=8, batch_size=4, encoder_blocks=1,
                          cnn_decoder_blocks=2, base_channels=2),
    hilo_segment=HiLoConfig(window_size=8, downsampling_factor=2, levels=2,
                            encoder_blocks=1, cnn_decoder_blocks=2, base_channels=2),
    onet=OnetConfig(encoder_blocks=2, decoder_blocks=1, latent_dim=8, base_channels=4,
                    decoder_hidden=8, input_downsample=4),
    train_steps=2,
    onet_batch=2,
    onet_coords=64,
    mise_factor=4,
    check_tiles=2,
    agreement_points=256,
    setup_repeats=2,
    traced_ops=1,
    unattributed_max=0.3,  # at these dims the trainers' Python loops weigh much more
)


@dataclass
class Op:
    """One timed operation: its work, sub-operations and what to check."""

    work: float
    attempted: int
    record: dict
    output: object = None
    wall_s: float = 0.0
    failures: dict[int, str] = field(default_factory=dict)  # sub-op index -> reason
    checks: dict = field(default_factory=dict)  # values the output check measured


# ---------------------------------------------------------------------------
# set-up helpers


def write_scans(workdir: Path, spec: Spec, seed: int, count: int, ratios):
    """Generate and save ``count`` scans; returns the manifest, paths resolved."""
    data_io.write_dataset(workdir, data_io.SynthConfig(dims=spec.dims, seed=seed), count,
                          ratios=ratios)
    return data_io.load_manifest(workdir / "manifest.tsv")


def load_pair(record):
    return data_io.load_volume(record.path), data_io.load_volume(record.label_path)


def seeded_state(model) -> dict[str, np.ndarray]:
    """The model's state with every all-zero entry replaced by seeded values."""
    rng = make_rng(WEIGHT_SEED, 1)
    state = {}
    for name, value in model.state_dict().items():
        if value.any():
            state[name] = np.array(value)
        else:
            state[name] = rng.normal(0.0, WEIGHT_SCALE, size=value.shape).astype(value.dtype)
    return state


def checkpointed_model(model_cls, cfg, kind: str, path: Path):
    """Build seeded weights, save them, and load them back into a fresh model."""
    checkpoint.save_checkpoint(path, kind, config_text(cfg), seeded_state(model_cls(cfg, WEIGHT_SEED)))
    _, _, state, _ = checkpoint.load_checkpoint(path)
    model = model_cls(cfg)
    model.load_state_dict(state)
    return model.eval()


def window_region(labels, w: int) -> BoundingBox:
    """The gun's bounding box plus a margin, grown to whole windows.

    Growing to whole windows (shifted back inside the scan where it fits)
    keeps each tile's share of region voxels near 1, so the voxel rate does
    not swing with the gun's size from seed to seed.
    """
    box = BoundingBox.from_points(np.argwhere(labels.data)).expand(REGION_MARGIN)
    lo, hi = [], []
    for a, b, n in zip(box.min, box.max, labels.dims):
        side = -(-(b - a + 1) // w) * w
        start = min(max(a, 0), max(n - side, 0))
        lo.append(start)
        hi.append(min(start + side, n) - 1)
    return BoundingBox(tuple(lo), tuple(hi))


class QueueLog:
    """Counts a queue's loads, evictions and samples (cheap, always on)."""

    def __init__(self, queue: TrainingQueue):
        self.pushes = 0
        self.evictions = 0
        self.pushes_at_sample: list[int] = []
        self.pushed: set = set()
        self.sampled: set = set()
        push, sample = queue.push, queue.sample_batch

        def counted_push(entry):
            evicted = push(entry)
            self.pushes += 1
            self.pushed.add(entry.instance_id)
            self.evictions += evicted is not None
            return evicted

        def counted_sample(batch_size, rng):
            self.pushes_at_sample.append(self.pushes)
            batch = sample(batch_size, rng)
            self.sampled.update(e.instance_id for e in batch)
            return batch

        queue.push = counted_push
        queue.sample_batch = counted_sample


# ---------------------------------------------------------------------------
# workloads


class HiloTrain:
    name = "hilo-train"
    # spans the traced run must see; a zero count means a missed binding
    expected_spans = (
        "nn.conv3d", "nn.add", "nn.mul", "nn.matmul", "nn.selu", "nn.sigmoid",
        "nn.batch_standardize", "nn.avg_pool3d", "nn.upsample_nearest3d", "nn.concat",
        "nn.focal_loss", "nn.backward", "nn.accumulate_grad", "nn.meter.track",
        "nn.adam.step", "voxel.build_pyramid", "voxel.extract_window",
        "queue.next_batch", "queue.sample_batch", "data_io.load_volume",
        "data_io.write_dataset", "models.forward_batch", "models.train_hilo",
    )

    def __init__(self, spec: Spec, seed: int):
        self.spec, self.seed = spec, seed
        self.pyramid_cfg = spec.hilo_train
        self.per_op = spec.train_steps
        self.sampler = SamplerConfig(redraw_prob=1.0)

    def setup(self, workdir: Path) -> None:
        manifest = write_scans(workdir, self.spec, self.seed, self.spec.train_scans, (1.0, 0.0, 0.0))
        self.records = manifest.paths("train")
        self.probe_volume = load_pair(self.records[0])[0]

    def run_op(self, index: int) -> Op:
        spec, cfg = self.spec, self.spec.hilo_train
        queue = TrainingQueue(capacity=spec.queue_capacity, policy="hardness")
        log = QueueLog(queue)
        _, metrics = train_mod.train_hilo(
            self.records, cfg, queue, epochs=spec.train_steps, max_steps=spec.train_steps,
            micro_batch=spec.micro_batch, seed=self.seed, sampler=self.sampler,
            pyramid_sampling="volume",
        )
        losses = [float(x) for x in metrics["train_loss"]]
        record = {
            "losses": losses, "loads": log.pushes, "evictions": log.evictions,
            "loads_at_sample": log.pushes_at_sample,
            "used": len(log.pushed & log.sampled),
        }
        return Op(work=len(losses) * cfg.batch_size, attempted=self.per_op, record=record)

    def check(self, op: Op) -> None:
        r, steps = op.record, self.spec.train_steps
        for k in range(steps):
            if k >= len(r["losses"]) or not math.isfinite(r["losses"][k]):
                op.failures[k] = "missing or non-finite loss"
            elif k >= len(r["loads_at_sample"]) or r["loads_at_sample"][k] != k + 1:
                op.failures[k] = "not exactly one loader load per step"
        if r["evictions"] != max(0, r["loads"] - self.spec.queue_capacity):
            op.failures[steps - 1] = "evictions != loads - capacity"


class HiloSegment:
    name = "hilo-segment"
    expected_spans = (
        "nn.conv3d", "nn.add", "nn.mul", "nn.matmul", "nn.selu", "nn.sigmoid",
        "nn.avg_pool3d", "nn.upsample_nearest3d", "nn.concat", "nn.meter.track",
        "nn.checkpoint.save", "nn.checkpoint.load", "voxel.build_pyramid",
        "voxel.extract_window", "data_io.load_volume", "data_io.write_dataset",
        "models.forward_batch", "models.hilo_forward", "inference.segment_volume",
    )

    def __init__(self, spec: Spec, seed: int):
        self.spec, self.seed = spec, seed
        self.pyramid_cfg = spec.hilo_segment
        self.per_op = 1

    def setup(self, workdir: Path) -> None:
        cfg = self.spec.hilo_segment
        manifest = write_scans(workdir, self.spec, self.seed, self.spec.segment_scans, (0.0, 0.0, 1.0))
        self.scans = []
        for record in manifest.paths("test"):
            vol, labels = load_pair(record)
            self.scans.append((vol, window_region(labels, cfg.window_size)))
        self.probe_volume = self.scans[0][0]
        self.model = checkpointed_model(HiLoModel, cfg, cfg.kind, workdir / "segment.ckpt")

    def run_op(self, index: int) -> Op:
        cfg = self.spec.hilo_segment
        j = index % len(self.scans)
        vol, region = self.scans[j]
        out = inference.segment_volume(vol, self.model, cfg, region=region, threads=1)
        record = {
            "scan": j, "tiles": len(plan_tiling(region, cfg.window_size)),
            "region_voxels": region.volume, "positives": int(out.data.sum()),
        }
        return Op(work=region.volume, attempted=self.per_op, record=record, output=out)

    def check(self, op: Op) -> None:
        cfg = self.spec.hilo_segment
        w = cfg.window_size
        vol, region = self.scans[op.record["scan"]]
        out = op.output.data
        sl = tuple(slice(a, b + 1) for a, b in zip(region.min, region.max))
        inside = out[sl]
        if out.shape != vol.dims:
            op.failures[0] = "output dims differ from input dims"
        elif out.max(initial=0) > 1:
            op.failures[0] = "output is not binary"
        elif int(out.sum()) != int(inside.sum()):
            op.failures[0] = "labels outside the region"
        elif inside.all() or not inside.any():
            op.failures[0] = "region does not hold both classes"
        else:
            plan = plan_tiling(region, w).origins
            rng = make_rng(self.seed, 5, op.record["scan"])
            picks = rng.choice(len(plan), size=min(self.spec.check_tiles, len(plan)), replace=False)
            for origin in (plan[int(i)] for i in picks):
                center = tuple(o + w // 2 for o in origin)
                pyr = voxel.build_pyramid(vol, center, w, cfg.downsampling_factor, cfg.levels)
                want = hilo.hilo_forward(pyr, cfg, self.model) > cfg.threshold
                lo = [max(o, r) for o, r in zip(origin, region.min)]
                hi = [min(o + w, r + 1) for o, r in zip(origin, region.max)]
                got = out[tuple(slice(a, b) for a, b in zip(lo, hi))]
                want = want[tuple(slice(a - o, b - o) for a, b, o in zip(lo, hi, origin))]
                if not np.array_equal(got, want.astype(np.uint8)):
                    op.failures[0] = f"tile at {origin} differs from hilo_forward"
                    break


class OnetSuperres:
    name = "onet-sr"
    expected_spans = (
        "nn.conv3d", "nn.add", "nn.mul", "nn.matmul", "nn.leaky_relu", "nn.sigmoid",
        "nn.batch_standardize", "nn.avg_pool3d", "nn.bce_loss", "nn.backward",
        "nn.accumulate_grad", "nn.meter.track", "nn.adam.step", "nn.checkpoint.save",
        "nn.checkpoint.load", "voxel.average_pool", "sampling.sample_biased_coords",
        "data_io.load_volume", "data_io.write_dataset", "models.onet_encode",
        "models.onet_decode", "models.train_superres_onet", "inference.mise_evaluate",
    )
    pyramid_cfg = None

    def __init__(self, spec: Spec, seed: int):
        self.spec, self.seed = spec, seed
        self.per_op = spec.onet_steps + 1

    def setup(self, workdir: Path) -> None:
        spec = self.spec
        n = spec.train_scans + spec.mise_scans
        manifest = write_scans(workdir, spec, self.seed, n,
                               (spec.train_scans / n, 0.0, spec.mise_scans / n))
        self.records = manifest.paths("train")
        self.tests = [load_pair(r)[0] for r in manifest.paths("test")]
        if len(self.records) != spec.train_scans or len(self.tests) != spec.mise_scans:
            raise RuntimeError(f"split gave {manifest.counts}, not the requested sizes")
        self.probe_volume = self.tests[0]
        self.model = checkpointed_model(OnetModel, spec.onet, "onet", workdir / "onet.ckpt")
        self.sampler = SamplerConfig(n_train_coords=spec.onet_coords)

    def run_op(self, index: int) -> Op:
        spec, cfg = self.spec, self.spec.onet
        t0 = perf_counter()
        _, metrics = train_mod.train_superres_onet(
            self.records, cfg, self.sampler, epochs=spec.onet_steps, batch=spec.onet_batch,
            micro_batch=spec.micro_batch, seed=self.seed,
        )
        t1 = perf_counter()
        j = index % len(self.tests)
        vol = self.tests[j]
        latent = onet.onet_encode(vol, cfg, self.model)
        count = [0, 0]

        def decode(coords):
            count[0] += len(coords)
            count[1] += 1
            return onet.onet_decode(coords, latent, cfg, self.model, dims=vol.dims)

        out = inference.mise_evaluate(decode, vol.dims, spec.mise_factor, cfg.threshold)
        t2 = perf_counter()
        voxels = int(np.prod(vol.dims))
        record = {
            "losses": [float(x) for x in metrics["train_loss"]], "scan": j,
            "points_decoded": count[0], "decode_calls": count[1],
            "positives": int(out.data.sum()),
            "samples": spec.onet_steps * min(spec.onet_batch, spec.train_scans),
            "mise_voxels": voxels, "train_s": t1 - t0, "mise_s": t2 - t1,
        }
        return Op(work=voxels, attempted=self.per_op, record=record, output=(latent, out))

    def check(self, op: Op) -> None:
        spec, cfg = self.spec, self.spec.onet
        losses = op.record["losses"]
        for k in range(spec.onet_steps):
            if k >= len(losses) or not math.isfinite(losses[k]):
                op.failures[k] = "missing or non-finite loss"
        j = op.record["scan"]
        vol = self.tests[j]
        latent, out = op.output
        if out.dims != vol.dims or out.data.max(initial=0) > 1:
            op.failures[spec.onet_steps] = "MISE output has the wrong dims or is not binary"
            return
        rng = make_rng(self.seed, 6, j)
        coords = np.stack([rng.integers(0, d, spec.agreement_points) for d in vol.dims], axis=1)
        direct = onet.onet_decode(coords, latent, cfg, self.model, dims=vol.dims) > cfg.threshold
        agree = float(np.mean(out.data[coords[:, 0], coords[:, 1], coords[:, 2]] == direct))
        op.checks["agreement"] = agree
        if agree < AGREEMENT_BOUND:
            op.failures[spec.onet_steps] = f"MISE agrees with direct decoding on only {agree:.4f}"


WORKLOADS = {w.name: w for w in (HiloTrain, HiloSegment, OnetSuperres)}
