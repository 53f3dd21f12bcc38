"""Training loops: pooled-volume occupancy models and window-pyramid models.

Both trainers run one loop, ``_fit``: Adam steps on micro-batched batches,
the divergence check, and validation that keeps the state with the best
smoothed IoU. Each trainer keeps only its data path. The occupancy trainer
walks epoch permutations of pooled volumes held in memory; the pyramid
trainer draws pyramids from instances that a loader pushes into a training
queue between steps.

Both trainers return (best parameter state, ``_fit``'s step-indexed record)
and never write files themselves; checkpointing is the caller's job.
Instances can be given as in-memory (volume, labels) pairs or as manifest
records with ``path`` and ``label_path`` attributes, which are loaded on
demand.
"""

from __future__ import annotations

import math
from contextlib import closing

import numpy as np

from .. import nn
from ..data_io import load_record
from ..errors import DataError, DegenerateLabelsError, DivergenceError
from ..inference import mask_iou
from ..nn import functional as F
from ..nn.tensor import hand_over
from ..queue import BatchLoader, TrainingQueue
from ..rng import make_rng
from ..sampling import SamplerConfig, sample_biased_coords, sample_pyramid_location
from ..voxel import LabelVolume, VoxelVolume, average_pool, build_pyramid, extract_window, max_pool
from .hilo import HiLoConfig, HiLoModel
from .onet import OnetConfig, OnetModel, normalize_coords

_SHUFFLE_STREAM = 31
_COORD_STREAM = 32
_QUEUE_STREAM = 33
_PYRAMID_STREAM = 34
_VAL_STREAM = 41


def _as_pair(item) -> tuple[VoxelVolume, LabelVolume]:
    if isinstance(item, tuple) and len(item) == 2:
        return item
    return load_record(item)


def _snapshot(model) -> dict[str, np.ndarray]:
    return {k: np.array(v, copy=True) for k, v in model.state_dict().items()}


def _micro_batched_step(opt, total: int, micro_batch: int, entry_losses) -> np.ndarray:
    """One optimizer step over a batch of ``total`` instances, its gradient
    accumulated over contiguous chunks of at most ``micro_batch``.

    ``entry_losses(a, b)`` returns the per-instance mean losses of instances
    [a, b). Each chunk seeds every one of them with 1/total, the gradient
    of the batch mean, so every instance's gradient is seeded alike
    whatever its chunk, and the ops add per-instance parameter gradients in
    instance order (``nn.functional``): the step is the whole batch's bit
    for bit, and the chunking bounds memory only. Returns the per-instance
    losses in instance order.
    """
    opt.zero_grad()
    losses = np.empty(total)
    for a in range(0, total, micro_batch):
        b = min(a + micro_batch, total)
        per = entry_losses(a, b)
        losses[a:b] = per.data
        hand_over(per)  # copied out; a backward keeps its root's data alive
        per.backward(seed=np.full(b - a, 1.0 / total, per.dtype), fresh=True)
    opt.step()
    return losses


def _require_at_least(low: int, **sizes: int | None) -> None:
    for name, value in sizes.items():
        if value is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


# _check_divergence: the mean of the last _GUARD_WINDOW losses may not exceed
# _GUARD_FACTOR times the first loss once _GUARD_GRACE losses have been seen
_GUARD_WINDOW = 5
_GUARD_FACTOR = 4.0
_GUARD_GRACE = 10


def _check_divergence(losses: list[float], context: str) -> None:
    """Raises once the record of step ``losses``, newest last, diverges.

    A non-finite newest loss raises at once. Otherwise the smoothed loss may
    not blow past a multiple of the first loss, which is computed before any
    parameter update, so it is a sane reference even when the learning rate
    is absurd. That check begins after a grace period so noisy warmup steps
    cannot trip it.
    """
    loss = losses[-1]
    if not np.isfinite(loss):
        raise DivergenceError(f"{context}: non-finite loss {loss!r}")
    if len(losses) > _GUARD_GRACE:
        reference = max(losses[0], 1e-6)
        smoothed = float(np.mean(losses[-_GUARD_WINDOW:]))
        if smoothed > _GUARD_FACTOR * reference:
            raise DivergenceError(
                f"{context}: smoothed loss {smoothed:.4g} exceeds "
                f"{_GUARD_FACTOR:g} x initial {reference:.4g}"
            )


def _fit(model, forward, loss, steps: int, batches, val, validate_every: int, lr: float,
         micro_batch: int, smoothing_window: int, context: str):
    """The training loop of both trainers: ``steps`` Adam steps on ``model``.

    ``batches`` yields (input arrays, target, done) per step, batch axis
    first. ``forward`` maps the list of input tensors to predictions and
    ``loss(pred, target)`` gives per-instance losses; ``done``, unless None,
    receives the step's per-instance losses. ``val`` holds fixed
    (input arrays, target) batches of one, evaluated every ``validate_every``
    steps and after the last: the mean loss, the mean IoU of the masks at
    ``model.cfg.threshold``, and that IoU averaged over the last
    ``smoothing_window`` validations. Returns the state at the best smoothed
    IoU (the final state without validation) and the per-step losses and
    validation records, with ``best_step`` counted from 1. Raises
    DivergenceError on a non-finite loss, a runaway loss, or a non-finite
    parameter after the last update.
    """
    opt = nn.Adam(model.parameters(), lr=lr)
    fit = {"train_loss": [], "val_steps": [], "val_loss": [], "val_iou": [],
           "val_iou_smoothed": [], "best_step": None}
    best, best_state = -math.inf, None
    for step, (inputs, target, done) in zip(range(1, steps + 1), batches):

        def entry_losses(a, b):
            return loss(forward([nn.Tensor(x[a:b]) for x in inputs]), target[a:b])

        per_entry = _micro_batched_step(opt, len(target), micro_batch, entry_losses)
        if done is not None:
            done(per_entry)
        fit["train_loss"].append(float(np.mean(per_entry)))
        _check_divergence(fit["train_loss"], context)

        if val and (step % validate_every == 0 or step == steps):
            with nn.no_grad():
                v, ious = 0.0, []
                for xs, t in val:
                    pred = forward([nn.Tensor(x) for x in xs])
                    v += float(loss(pred, t).data[0])
                    ious.append(mask_iou(pred.data[0] > model.cfg.threshold, t[0] != 0))
            fit["val_steps"].append(step)
            fit["val_loss"].append(v / len(val))
            fit["val_iou"].append(float(np.mean(ious)))
            smoothed = float(np.mean(fit["val_iou"][-smoothing_window:]))
            fit["val_iou_smoothed"].append(smoothed)
            if smoothed > best:
                best, best_state = smoothed, _snapshot(model)
                fit["best_step"] = step
    # the divergence check reads losses, which come before their step's update
    if not all(np.isfinite(p.data).all() for p in opt.params):
        raise DivergenceError(f"{context}: non-finite parameters after the last update")
    return (best_state if best_state is not None else _snapshot(model)), fit


# ---------------------------------------------------------------------------
# pooled-volume occupancy training


def _prep_onet_instance(item, cfg: OnetConfig):
    vol, labels = _as_pair(item)
    pooled = average_pool(vol, cfg.input_downsample) if cfg.input_downsample > 1 else vol
    grid = max_pool(labels, cfg.input_downsample) if cfg.coord_resolution == "low" else labels
    return {"pooled": pooled.data, "grid": grid, "dims": grid.dims, "scan_dims": vol.dims}


def train_superres_onet(dataset, cfg: OnetConfig, sampler: SamplerConfig,
                        epochs: int = 200, batch: int = 8, val_dataset=None,
                        lr: float = 0.001, micro_batch: int = 2,
                        seed: int = 0, dtype=np.float32, smoothing_window: int = 5):
    """BCE training on sampled coordinates against encoded pooled volumes.

    Validation (when a validation set is given) runs after every epoch on a
    fixed per-instance coordinate sample; the state with the best smoothed
    validation IoU is returned with ``_fit``'s record, whose steps are
    batches (``ceil(len(dataset) / batch)`` per epoch). All instances must
    share one volume shape so they can batch. ``micro_batch`` bounds how
    many instances one forward and backward pass holds; it bounds memory
    only and never changes the result.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset must be nonempty")
    _require_at_least(0, epochs=epochs)
    _require_at_least(1, batch=batch, micro_batch=micro_batch, smoothing_window=smoothing_window)
    insts = [_prep_onet_instance(item, cfg) for item in dataset]
    pooled = {i["pooled"].shape: i["scan_dims"] for i in insts}
    if len(pooled) != 1:
        raise DataError("instances must share dims to batch, got scans of dims " + ", ".join(
            f"{dims} (pooled {shape})" for shape, dims in sorted(pooled.items())))

    model = OnetModel(cfg, seed, dtype)
    val = []
    for j, item in enumerate(val_dataset or []):
        inst = _prep_onet_instance(item, cfg)
        vrng = make_rng(seed, _VAL_STREAM, j)
        # validation mirrors the test protocol: uniform coordinates, not the
        # biased training draw (under the biased draw a constant all-positive
        # predictor scores shape_fraction and can shadow real localization)
        coords = np.stack(
            [vrng.integers(0, d, size=sampler.n_train_coords) for d in inst["dims"]], axis=1
        )
        inputs = [inst["pooled"][None, ..., None].astype(dtype),
                  normalize_coords(coords, inst["dims"])[None].astype(dtype)]
        lbl = inst["grid"].data[coords[:, 0], coords[:, 1], coords[:, 2]]
        val.append((inputs, lbl.astype(np.float32)[None]))

    def batches():
        rng = make_rng(seed, _SHUFFLE_STREAM)
        crng = make_rng(seed, _COORD_STREAM)
        n = sampler.n_train_coords
        for _ in range(epochs):
            order = rng.permutation(len(insts))
            for start in range(0, len(order), batch):
                idxs = order[start : start + batch]
                vols = np.stack([insts[i]["pooled"] for i in idxs])[..., None].astype(dtype)
                c01 = np.empty((len(idxs), n, 3), dtype=dtype)
                t = np.empty((len(idxs), n), dtype=dtype)
                for row, i in enumerate(idxs):
                    coords, t[row] = sample_biased_coords(insts[i]["grid"], sampler, n, rng=crng)
                    c01[row] = normalize_coords(coords, insts[i]["dims"])
                yield [vols, c01], t, None

    per_epoch = math.ceil(len(insts) / batch)
    return _fit(model, lambda xs: model(*xs), F.bce_loss, epochs * per_epoch, batches(),
                val, per_epoch, lr, micro_batch, smoothing_window, "occupancy training")


# ---------------------------------------------------------------------------
# window-pyramid training


def _crop_to_positive_bb(item) -> tuple[VoxelVolume, LabelVolume]:
    """Load one instance and keep only the labeled object's bounding box.

    The crop is checked once here, in the loader's worker, so every pyramid
    draw from it reads the arrays as they are."""
    vol, labels = _as_pair(item)
    pos = np.argwhere(labels.data)
    if pos.size == 0:
        raise DegenerateLabelsError("instance has no positive voxels, nothing to crop to")
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    sl = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
    return VoxelVolume(vol.data[sl]), LabelVolume(labels.data[sl])


def _draw_window(crop, cfg: HiLoConfig, sampler: SamplerConfig, mode: str, rng):
    """One pyramid draw from a cropped (volume, labels) instance.

    Draws from ``rng`` in this order: the center (uniform inside the crop in
    "bb" mode, the miss-redraw rule over it in "volume" mode), then, for the
    coordinate decoder, ``sampler.n_hilo_coords`` uniform window
    coordinates. Returns (pyramid, target, coordinates / w or None); the
    target is the label window, or its labels at the coordinates.
    """
    vol, labels = crop
    w, d, L = cfg.window_size, cfg.downsampling_factor, cfg.levels
    if mode == "bb":
        center = tuple(int(rng.integers(0, s)) for s in labels.dims)
    else:
        center = sample_pyramid_location(labels, sampler, w, d, L, rng=rng)
    pyr = build_pyramid(vol, center, w, d, L)
    win = extract_window(labels, tuple(c - w // 2 for c in center), w)
    if cfg.decoder == "cnn":
        return pyr, win, None
    co = rng.integers(0, w, size=(sampler.n_hilo_coords, 3))
    return pyr, win[co[:, 0], co[:, 1], co[:, 2]], co / w


def _stack_windows(draws, dtype):
    """Batch ``_draw_window`` results into (input arrays, target): one
    (B, w, w, w, 1) array per level, then the (B, n, 3) coordinates when
    the draws have them."""
    pyrs, targets, coords = zip(*draws)
    inputs = [np.stack(lv)[..., None].astype(dtype) for lv in zip(*pyrs)]
    if coords[0] is not None:
        inputs.append(np.stack(coords).astype(dtype))
    return inputs, np.stack(targets).astype(dtype)


def train_hilo(dataset, cfg: HiLoConfig, queue: TrainingQueue, epochs: int = 20,
               sampler: SamplerConfig | None = None, val_dataset=None,
               lr: float = 0.001, validate_every: int = 128, micro_batch: int = 2,
               seed: int = 0, smoothing_window: int = 5,
               pyramid_sampling: str = "bb", max_steps: int | None = None,
               dtype=np.float32):
    """Queue-fed training of a window-pyramid model.

    A loader pushes one instance into ``queue`` per step, between steps (the
    payload is the labeled object's bounding-box crop); pyramid locations
    are drawn inside the crop ("bb" mode) or over it with the miss-redraw
    rule ("volume").
    The grid decoder trains on focal loss over whole label windows, the
    coordinate decoder on BCE over uniform window coordinates. Validation
    evaluates one fixed pyramid per validation instance every
    ``validate_every`` steps; the state with the best smoothed IoU is
    returned with ``_fit``'s record and the all-empty prediction's
    validation IoU as ``baseline_iou``. ``micro_batch`` bounds how many
    pyramids one forward and backward pass holds; it bounds memory only and
    never changes the result.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset must be nonempty")
    if pyramid_sampling not in ("bb", "volume"):
        raise ValueError(f"pyramid_sampling must be 'bb' or 'volume', got {pyramid_sampling!r}")
    _require_at_least(0, epochs=epochs, max_steps=max_steps)
    _require_at_least(1, micro_batch=micro_batch, validate_every=validate_every,
                      smoothing_window=smoothing_window)
    sampler = sampler or SamplerConfig()
    steps_per_epoch = max(1, math.ceil(len(dataset) / cfg.batch_size))
    total_steps = epochs * steps_per_epoch
    if max_steps is not None:
        total_steps = min(total_steps, max_steps)

    model = HiLoModel(cfg, seed, dtype)
    # one fixed pyramid per validation instance, reused at every validation
    val = [
        _stack_windows([_draw_window(_crop_to_positive_bb(item), cfg, sampler, pyramid_sampling,
                                     make_rng(seed, _VAL_STREAM, j))], dtype)
        for j, item in enumerate(val_dataset or [])
    ]
    baseline = None
    if val:
        truths = [t[0] != 0 for _, t in val]
        baseline = float(np.mean([mask_iou(np.zeros_like(m), m) for m in truths]))

    def batches():
        # the loader starts with the first batch, so a run of no steps loads nothing
        loader = BatchLoader(queue, dataset, _crop_to_positive_bb).start()
        qrng = make_rng(seed, _QUEUE_STREAM)
        prng = make_rng(seed, _PYRAMID_STREAM)
        try:
            for step in range(1, total_steps + 1):
                # the last step starts no load: its file would never be pushed
                entries = loader.next_batch(cfg.batch_size, qrng, prefetch=step < total_steps)

                def done(losses):
                    for e, h in zip(entries, losses):
                        queue.update_hardness(e.instance_id, float(h))

                # no local keeps the draws, or they sit beside their stacked copies all step
                inputs, target = _stack_windows(
                    [_draw_window(e.payload, cfg, sampler, pyramid_sampling, prng)
                     for e in entries], dtype)
                yield inputs, target, done
        finally:
            loader.stop()

    L = cfg.levels
    with closing(batches()) as stream:
        state, fit = _fit(model, lambda xs: model.forward_batch(xs[:L], *xs[L:]),
                          F.focal_loss if cfg.decoder == "cnn" else F.bce_loss, total_steps,
                          stream, val, validate_every, lr, micro_batch, smoothing_window,
                          "pyramid training")
    return state, {**fit, "baseline_iou": baseline}
