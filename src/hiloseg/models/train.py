"""Training loops: pooled-volume occupancy models and window-pyramid models.

Both trainers return (best parameter state, metrics dict) and never write
files themselves; checkpointing is the caller's job. Instances can be given
as in-memory (volume, labels) pairs or as manifest records with ``path`` and
``label_path`` attributes, which are loaded on demand.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .. import nn
from ..errors import DivergenceError
from ..inference import mask_iou
from ..nn import functional as F
from ..queue import BatchLoader, TrainingQueue
from ..rng import make_rng
from ..sampling import SamplerConfig, sample_biased_coords, sample_pyramid_location
from ..voxel import LabelVolume, VoxelVolume, average_pool, build_pyramid, extract_window, max_pool
from .hilo import HiLoConfig, HiLoModel
from .onet import OnetConfig, OnetModel, normalize_coords

log = logging.getLogger(__name__)

_SHUFFLE_STREAM = 31
_COORD_STREAM = 32
_QUEUE_STREAM = 33
_PYRAMID_STREAM = 34
_VAL_STREAM = 41


def _as_pair(item) -> tuple[VoxelVolume, LabelVolume]:
    if isinstance(item, tuple) and len(item) == 2:
        return item
    from ..data_io import load_volume

    return load_volume(item.path), load_volume(item.label_path)


def _snapshot(model) -> dict[str, np.ndarray]:
    return {k: np.array(v, copy=True) for k, v in model.state_dict().items()}


def _micro_batched_step(opt, total: int, micro_batch: int, entry_losses) -> np.ndarray:
    """One optimizer step over a batch of ``total`` instances, its gradient
    accumulated over contiguous chunks of at most ``micro_batch``.

    ``entry_losses(a, b)`` returns the per-instance mean losses of instances
    [a, b). Each chunk backpropagates their sum times 1/total, so every
    instance's gradient is seeded alike whatever its chunk, and the ops add
    per-instance parameter gradients in instance order (``nn.functional``):
    the step is the whole batch's bit for bit, and the chunking bounds
    memory only. Returns the per-instance losses in instance order.
    """
    opt.zero_grad()
    losses = np.empty(total)
    for a in range(0, total, micro_batch):
        b = min(a + micro_batch, total)
        per = entry_losses(a, b)
        losses[a:b] = per.data
        F.scale(F.sum_all(per), 1.0 / total).backward()
    opt.step()
    return losses


def _require_positive(**sizes: int) -> None:
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


class _BestState:
    """Appends each validation IoU and its smoothed value to ``metrics`` and
    keeps the model state at the best smoothed value, recording where it
    was reached under ``metrics[at_key]``."""

    def __init__(self, model, metrics: dict, window: int, at_key: str):
        self.model = model
        self.metrics = metrics
        self.window = window
        self.at_key = at_key
        self.smoothed = -math.inf
        self.state = None

    def record(self, iou: float, at: int) -> None:
        ious = self.metrics["val_iou"]
        ious.append(iou)
        smoothed = float(np.mean(ious[-self.window :]))
        self.metrics["val_iou_smoothed"].append(smoothed)
        if smoothed > self.smoothed:
            self.smoothed = smoothed
            self.state = _snapshot(self.model)
            self.metrics[self.at_key] = at

    def result(self) -> dict[str, np.ndarray]:
        """The best state, or the current one when none was recorded."""
        return self.state if self.state is not None else _snapshot(self.model)


class _DivergenceGuard:
    """Raises once the smoothed loss blows past a multiple of the first loss.

    The first batch loss is computed before any parameter update, so it is a
    sane reference even when the learning rate is absurd. Checks begin after
    a grace period so noisy warmup steps cannot trip the guard; non-finite
    losses raise immediately.
    """

    def __init__(self, window: int = 5, factor: float = 4.0, grace: int = 10):
        self.window = window
        self.factor = factor
        self.grace = grace
        self.losses: list[float] = []
        self.reference: float | None = None

    def check(self, loss: float, context: str) -> None:
        if not np.isfinite(loss):
            raise DivergenceError(f"{context}: non-finite loss {loss!r}")
        self.losses.append(float(loss))
        if self.reference is None:
            self.reference = max(float(loss), 1e-6)
            return
        smoothed = float(np.mean(self.losses[-self.window :]))
        if len(self.losses) > self.grace and smoothed > self.factor * self.reference:
            raise DivergenceError(
                f"{context}: smoothed loss {smoothed:.4g} exceeds "
                f"{self.factor:g} x initial {self.reference:.4g}"
            )


# ---------------------------------------------------------------------------
# pooled-volume occupancy training


def _prep_onet_instance(item, cfg: OnetConfig):
    vol, labels = _as_pair(item)
    pooled = average_pool(vol, cfg.input_downsample) if cfg.input_downsample > 1 else vol
    grid = max_pool(labels, cfg.input_downsample) if cfg.coord_resolution == "low" else labels
    return {"pooled": pooled.data, "grid": grid, "dims": grid.dims}


def train_superres_onet(dataset, cfg: OnetConfig, sampler: SamplerConfig,
                        epochs: int = 200, batch: int = 8, val_dataset=None,
                        lr: float = 0.001, micro_batch: int = 2,
                        seed: int = 0, dtype=np.float32, smoothing_window: int = 5):
    """BCE training on sampled coordinates against encoded pooled volumes.

    Validation (when a validation set is given) runs after every epoch on a
    fixed per-instance coordinate sample; the state with the best smoothed
    validation IoU is returned. All instances must share one volume shape so
    they can batch. ``micro_batch`` bounds how many instances one forward and
    backward pass holds; it bounds memory only and never changes the result.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset must be nonempty")
    _require_positive(batch=batch, micro_batch=micro_batch)
    insts = [_prep_onet_instance(item, cfg) for item in dataset]
    shapes = {i["pooled"].shape for i in insts}
    if len(shapes) != 1:
        raise ValueError(f"instances must share dims to batch, got {sorted(shapes)}")

    model = OnetModel(cfg, seed, dtype)
    metrics = {
        "train_loss": [], "val_loss": [], "val_iou": [], "val_iou_smoothed": [],
        "best_epoch": None, "epochs": epochs,
    }
    if epochs == 0:
        return _snapshot(model), metrics

    val_insts = []
    for j, item in enumerate(val_dataset or []):
        inst = _prep_onet_instance(item, cfg)
        vrng = make_rng(seed, _VAL_STREAM, j)
        # validation mirrors the test protocol: uniform coordinates, not the
        # biased training draw (under the biased draw a constant all-positive
        # predictor scores shape_fraction and can shadow real localization)
        coords = np.stack(
            [vrng.integers(0, d, size=sampler.n_train_coords) for d in inst["dims"]], axis=1
        )
        inst["c01"] = normalize_coords(coords, inst["dims"])[None]
        lbl = inst["grid"].data[coords[:, 0], coords[:, 1], coords[:, 2]]
        inst["t"] = lbl.astype(np.float32)[None]
        val_insts.append(inst)

    opt = nn.Adam(model.parameters(), lr=lr)
    rng = make_rng(seed, _SHUFFLE_STREAM)
    crng = make_rng(seed, _COORD_STREAM)
    guard = _DivergenceGuard()
    n = sampler.n_train_coords
    best = _BestState(model, metrics, smoothing_window, "best_epoch")

    for epoch in range(epochs):
        order = rng.permutation(len(insts))
        epoch_losses = []
        for start in range(0, len(order), batch):
            idxs = order[start : start + batch]
            vols = np.stack([insts[i]["pooled"] for i in idxs])[..., None].astype(dtype)
            c01 = np.empty((len(idxs), n, 3), dtype=dtype)
            t = np.empty((len(idxs), n), dtype=dtype)
            for row, i in enumerate(idxs):
                cb = sample_biased_coords(insts[i]["grid"], sampler, n, rng=crng)
                c01[row] = normalize_coords(cb.coords, insts[i]["dims"])
                t[row] = cb.labels

            def entry_losses(a, b):
                return F.bce_loss(model(nn.Tensor(vols[a:b]), nn.Tensor(c01[a:b])), t[a:b])

            batch_loss = float(np.mean(_micro_batched_step(opt, len(idxs), micro_batch, entry_losses)))
            guard.check(batch_loss, "occupancy training")
            epoch_losses.append(batch_loss)
        metrics["train_loss"].append(float(np.mean(epoch_losses)))

        if val_insts:
            with nn.no_grad():
                v = 0.0
                ious = []
                for inst in val_insts:
                    pred = model(
                        nn.Tensor(inst["pooled"][None, ..., None].astype(dtype)),
                        nn.Tensor(inst["c01"].astype(dtype)),
                    )
                    v += float(F.elementwise_bce(pred.data, inst["t"]).mean())
                    ious.append(mask_iou(pred.data[0] > cfg.threshold, inst["t"][0] != 0))
            metrics["val_loss"].append(v / len(val_insts))
            best.record(float(np.mean(ious)), epoch)

    return best.result(), metrics


# ---------------------------------------------------------------------------
# window-pyramid training


def _crop_to_positive_bb(item):
    """Load one instance and keep only the labeled object's bounding box."""
    vol, labels = _as_pair(item)
    pos = np.argwhere(labels.data)
    if pos.size == 0:
        raise ValueError("instance has no positive voxels, nothing to crop to")
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    sl = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
    return np.ascontiguousarray(vol.data[sl]), np.ascontiguousarray(labels.data[sl])


def _sample_center(crop_labels: np.ndarray, cfg: HiLoConfig, sampler: SamplerConfig,
                   mode: str, rng) -> tuple[int, int, int]:
    if mode == "bb":
        return tuple(int(rng.integers(0, s)) for s in crop_labels.shape)
    return sample_pyramid_location(
        LabelVolume(crop_labels), sampler, cfg.window_size,
        cfg.downsampling_factor, cfg.levels, rng=rng,
    )


def train_hilo(dataset, cfg: HiLoConfig, queue: TrainingQueue, epochs: int = 20,
               sampler: SamplerConfig | None = None, val_dataset=None,
               lr: float = 0.001, validate_every: int = 128, micro_batch: int = 2,
               seed: int = 0, smoothing_window: int = 5,
               pyramid_sampling: str = "bb", max_steps: int | None = None,
               dtype=np.float32):
    """Queue-fed training of a window-pyramid model.

    A loader thread feeds ``queue`` one instance per step (the payload is the
    labeled object's bounding-box crop); pyramid locations are drawn inside
    the crop ("bb" mode) or over it with the miss-redraw rule ("volume").
    The grid decoder trains on focal loss over whole label windows, the
    coordinate decoder on BCE over uniform window coordinates. Validation
    evaluates one fixed pyramid per validation instance every
    ``validate_every`` steps; the state with the best smoothed IoU is
    returned. ``micro_batch`` bounds how many pyramids one forward and
    backward pass holds; it bounds memory only and never changes the result.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset must be nonempty")
    if pyramid_sampling not in ("bb", "volume"):
        raise ValueError(f"pyramid_sampling must be 'bb' or 'volume', got {pyramid_sampling!r}")
    _require_positive(micro_batch=micro_batch)
    sampler = sampler or SamplerConfig()
    w, d, L = cfg.window_size, cfg.downsampling_factor, cfg.levels
    steps_per_epoch = max(1, math.ceil(len(dataset) / cfg.batch_size))
    total_steps = epochs * steps_per_epoch
    if max_steps is not None:
        total_steps = min(total_steps, max_steps)

    model = HiLoModel(cfg, seed, dtype)
    metrics = {
        "train_loss": [], "val_steps": [], "val_iou": [], "val_iou_smoothed": [],
        "best_step": None, "baseline_iou": None, "steps": total_steps,
    }
    if total_steps == 0:
        return _snapshot(model), metrics

    # one fixed pyramid per validation instance, reused at every validation
    val_insts = []
    for j, item in enumerate(val_dataset or []):
        crop_v, crop_l = _crop_to_positive_bb(item)
        vrng = make_rng(seed, _VAL_STREAM, j)
        center = _sample_center(crop_l, cfg, sampler, pyramid_sampling, vrng)
        pyr = build_pyramid(VoxelVolume(crop_v), center, w, d, L)
        origin = tuple(c - w // 2 for c in center)
        truth = extract_window(LabelVolume(crop_l), origin, w).data
        inst = {
            "levels": [lv.data[..., None].astype(dtype) for lv in pyr.levels],
            "truth": truth != 0,
        }
        if cfg.decoder == "onet":
            co = vrng.integers(0, w, size=(sampler.n_hilo_coords, 3))
            inst["coords"] = co
            inst["c01"] = (co / w).astype(dtype)
            inst["truth_at"] = truth[co[:, 0], co[:, 1], co[:, 2]] != 0
        val_insts.append(inst)
    if val_insts:
        if cfg.decoder == "cnn":
            metrics["baseline_iou"] = float(
                np.mean([mask_iou(np.zeros_like(i["truth"]), i["truth"]) for i in val_insts])
            )
        else:
            metrics["baseline_iou"] = float(
                np.mean([mask_iou(np.zeros_like(i["truth_at"]), i["truth_at"]) for i in val_insts])
            )

    def validate() -> float:
        with nn.no_grad():
            ious = []
            for inst in val_insts:
                lv = [nn.Tensor(arr[None]) for arr in inst["levels"]]
                if cfg.decoder == "cnn":
                    pred = model.forward_batch(lv).data[0] > cfg.threshold
                    ious.append(mask_iou(pred, inst["truth"]))
                else:
                    pred = model.forward_batch(lv, nn.Tensor(inst["c01"][None])).data[0]
                    ious.append(mask_iou(pred > cfg.threshold, inst["truth_at"]))
        return float(np.mean(ious))

    opt = nn.Adam(model.parameters(), lr=lr)
    qrng = make_rng(seed, _QUEUE_STREAM)
    prng = make_rng(seed, _PYRAMID_STREAM)
    guard = _DivergenceGuard()
    best = _BestState(model, metrics, smoothing_window, "best_step")
    n_coords = sampler.n_hilo_coords
    loader = BatchLoader(queue, dataset, lambda item: _crop_to_positive_bb(item)).start()
    try:
        for step in range(total_steps):
            entries = loader.next_batch(cfg.batch_size, qrng)
            B = len(entries)
            pyrs, targets, coords = [], [], []
            for e in entries:
                crop_v, crop_l = e.payload
                center = _sample_center(crop_l, cfg, sampler, pyramid_sampling, prng)
                pyrs.append(build_pyramid(VoxelVolume(crop_v), center, w, d, L))
                origin = tuple(c - w // 2 for c in center)
                win = extract_window(LabelVolume(crop_l), origin, w).data
                if cfg.decoder == "cnn":
                    targets.append(win)
                else:
                    co = prng.integers(0, w, size=(n_coords, 3))
                    coords.append(co)
                    targets.append(win[co[:, 0], co[:, 1], co[:, 2]])
            levels_np = [
                np.stack([p.levels[i].data for p in pyrs])[..., None].astype(dtype)
                for i in range(L)
            ]
            t = np.stack(targets).astype(dtype)
            c01 = (np.stack(coords) / w).astype(dtype) if coords else None

            def entry_losses(a, b):
                lv = [nn.Tensor(arr[a:b]) for arr in levels_np]
                if cfg.decoder == "cnn":
                    return F.focal_loss(model.forward_batch(lv), t[a:b])
                return F.bce_loss(model.forward_batch(lv, nn.Tensor(c01[a:b])), t[a:b])

            per_entry = _micro_batched_step(opt, B, micro_batch, entry_losses)
            batch_loss = float(np.mean(per_entry))
            for e, h in zip(entries, per_entry):
                try:
                    queue.update_hardness(e.instance_id, float(h))
                except KeyError:
                    pass  # evicted by the loader while this step was computing
            guard.check(batch_loss, "pyramid training")
            metrics["train_loss"].append(batch_loss)

            if val_insts and ((step + 1) % validate_every == 0 or step + 1 == total_steps):
                metrics["val_steps"].append(step + 1)
                best.record(validate(), step + 1)
    finally:
        loader.stop()

    return best.result(), metrics
