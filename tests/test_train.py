"""Training loops: batching, divergence protection, metrics bookkeeping,
best-state selection, and end-to-end determinism of both trainers.

Runs here are deliberately tiny (small windows, few coordinates, a handful
of epochs); they check the machinery, not model quality.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest
from conftest import recording_evictions

from hiloseg.errors import DivergenceError
from hiloseg.models import HiLoConfig, HiLoModel, OnetConfig, OnetModel, train_hilo, train_superres_onet
from hiloseg import nn
from hiloseg.models import train as train_mod
from hiloseg.models.train import _check_divergence, _micro_batched_step
from hiloseg.nn import functional as F
from hiloseg.queue import MAX_HARDNESS, TrainingQueue
from hiloseg.sampling import SamplerConfig
from hiloseg.voxel import LabelVolume, VoxelVolume

ONET_CFG = OnetConfig(
    input_downsample=2,
    encoder_blocks=2,
    decoder_blocks=2,
    base_channels=4,
    latent_dim=16,
    decoder_hidden=8,
)

HILO_CFG = HiLoConfig(
    window_size=8,
    levels=2,
    encoder_blocks=2,
    cnn_decoder_blocks=2,
    onet_decoder_blocks=2,
    base_channels=2,
    decoder_hidden=8,
    batch_size=4,
)

SAMPLER = SamplerConfig(n_train_coords=128, n_hilo_coords=64)


def make_instance(dims, lo, hi, seed):
    """Noise volume with a bright labeled box at [lo, hi)."""
    rng = np.random.default_rng(seed)
    data = rng.random(dims, dtype=np.float32) * 0.2
    lab = np.zeros(dims, dtype=np.uint8)
    box = tuple(slice(a, b) for a, b in zip(lo, hi))
    lab[box] = 1
    data[box] += 0.7
    return VoxelVolume(np.clip(data, 0.0, 1.0)), LabelVolume(lab)


def onet_dataset(n, seed0=0):
    out = []
    for k in range(n):
        off = 2 + (k % 3)
        out.append(make_instance((16, 16, 16), (off, off, off), (off + 7, off + 6, off + 8), seed0 + k))
    return out


def hilo_dataset(n, seed0=50):
    out = []
    for k in range(n):
        off = 3 + (k % 4)
        out.append(
            make_instance((24, 20, 22), (off, off, off), (off + 9, off + 8, off + 10), seed0 + k)
        )
    return out


def assert_micro_batches_exact(run, batch=4, seeds=range(12)):
    """``run(micro_batch, seed)`` gives the same state and losses at every
    micro-batch from 1 to ``batch`` as the whole batch, bit for bit."""
    for seed in seeds:
        a, ma = run(batch, seed)
        for micro_batch in range(1, batch):
            b, mb = run(micro_batch, seed)
            where = f"seed {seed}, micro-batch {micro_batch}"
            np.testing.assert_array_equal(mb["train_loss"], ma["train_loss"], err_msg=where)
            assert a.keys() == b.keys()
            for k in a:
                np.testing.assert_array_equal(b[k], a[k], err_msg=f"{where}: {k}")


class _GradRecorder:
    """An optimizer stand-in whose step records the accumulated gradients."""

    def __init__(self, params):
        self.params = params

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.grads = [p.grad.copy() for p in self.params]


@pytest.mark.parametrize("total", [3, 5, 7])
def test_micro_batched_step_exact_for_any_batch(total):
    """Every chunking of a batch gives the same per-instance losses and
    gradients bit for bit, also where 1/total and the chunk shares are not
    powers of two."""
    rng = np.random.default_rng(total)
    dense = nn.Dense(6, 1, rng=1)
    x = rng.normal(size=(total, 10, 6)).astype(np.float32)
    t = (rng.random((total, 10, 1)) > 0.5).astype(np.float32)
    opt = _GradRecorder(dense.parameters())

    def entry_losses(a, b):
        return F.bce_loss(F.sigmoid(dense(nn.Tensor(x[a:b]))), t[a:b])

    want = _micro_batched_step(opt, total, total, entry_losses)
    want_grads = opt.grads
    for micro_batch in range(1, total):
        got = _micro_batched_step(opt, total, micro_batch, entry_losses)
        np.testing.assert_array_equal(got, want)
        for g, w in zip(opt.grads, want_grads):
            np.testing.assert_array_equal(g, w, err_msg=f"micro-batch {micro_batch}")


def test_micro_batched_step_seeds_a_float64_model_in_float64(monkeypatch):
    """A float64 model's per-instance losses are float64 at every chunk,
    and each is seeded with the float64 1/total, not float32(1/3)."""
    total = 3
    rng = np.random.default_rng(0)
    dense = nn.Dense(4, 1, rng=1, dtype=np.float64)
    x = rng.normal(size=(total, 5, 4))
    t = rng.random((total, 5, 1)) > 0.5
    seeds = []
    backward = nn.Tensor.backward

    def recorded(self, seed=None, fresh=False):
        assert self.dtype == np.float64
        seeds.append(seed.copy())
        return backward(self, seed, fresh)

    def entry_losses(a, b):
        return F.bce_loss(F.sigmoid(dense(nn.Tensor(x[a:b]))), t[a:b])

    monkeypatch.setattr(nn.Tensor, "backward", recorded)
    _micro_batched_step(_GradRecorder(dense.parameters()), total, 2, entry_losses)
    assert [s.dtype for s in seeds] == [np.float64, np.float64]
    np.testing.assert_array_equal(np.concatenate(seeds), np.full(total, 1.0 / total))


def check_each_step(losses):
    """Check the loss record after each step, as ``_fit`` does."""
    for n in range(1, len(losses) + 1):
        _check_divergence(losses[:n], "test")


class TestDivergenceGuard:
    def test_steady_losses_pass(self):
        check_each_step([0.7] * 50)

    def test_non_finite_raises_immediately(self):
        with pytest.raises(DivergenceError, match="non-finite"):
            _check_divergence([float("nan")], "test")

    def test_blowup_after_grace_raises(self):
        check_each_step([1.0] * 10)
        with pytest.raises(DivergenceError, match="exceeds"):
            check_each_step([1.0] * 10 + [100.0] * 5)

    def test_spike_within_grace_tolerated(self):
        check_each_step([1.0, 100.0])  # warmup noise, not divergence


class TestTrainOnet:
    def test_zero_epochs_returns_initial_state(self):
        state, metrics = train_superres_onet(
            onet_dataset(2), ONET_CFG, SAMPLER, epochs=0, seed=3
        )
        fresh = OnetModel(ONET_CFG, seed=3).state_dict()
        assert state.keys() == fresh.keys()
        for k in state:
            np.testing.assert_array_equal(state[k], fresh[k])
        assert metrics["train_loss"] == metrics["val_steps"] == []
        assert metrics["best_step"] is None

    def test_loss_decreases(self):
        _, metrics = train_superres_onet(
            onet_dataset(4), ONET_CFG, SAMPLER, epochs=6, batch=4, lr=0.01, seed=0
        )
        tl = metrics["train_loss"]
        assert len(tl) == 6
        assert np.mean(tl[-2:]) < tl[0]

    def test_validation_bookkeeping(self):
        _, metrics = train_superres_onet(
            onet_dataset(4), ONET_CFG, SAMPLER,
            epochs=5, batch=4, lr=0.01, val_dataset=onet_dataset(2, seed0=20), seed=1,
        )
        assert len(metrics["val_loss"]) == 5
        assert len(metrics["val_iou"]) == 5
        sm = metrics["val_iou_smoothed"]
        for i in range(5):
            assert sm[i] == pytest.approx(np.mean(metrics["val_iou"][max(0, i - 4) : i + 1]))
        # one batch per epoch, so every step validates
        assert metrics["val_steps"] == [1, 2, 3, 4, 5]
        assert metrics["best_step"] == metrics["val_steps"][int(np.argmax(sm))]

    def test_epoch_metrics_with_several_batches_per_epoch(self, monkeypatch):
        """Five instances in batches of two: train_loss holds every batch's
        loss, validation runs after each epoch's third batch, and best_step
        counts batches."""
        batch_losses = []

        def recording_step(*args):
            losses = _micro_batched_step(*args)
            batch_losses.append(float(np.mean(losses)))
            return losses

        monkeypatch.setattr(train_mod, "_micro_batched_step", recording_step)
        _, metrics = train_superres_onet(
            onet_dataset(5), ONET_CFG, SAMPLER, epochs=4, batch=2, lr=0.01,
            val_dataset=onet_dataset(2, seed0=20), seed=1,
        )
        assert len(batch_losses) == 12
        assert metrics["train_loss"] == batch_losses
        assert metrics["val_steps"] == [3, 6, 9, 12]
        assert len(metrics["val_loss"]) == len(metrics["val_iou"]) == 4
        sm = metrics["val_iou_smoothed"]
        assert metrics["best_step"] == metrics["val_steps"][int(np.argmax(sm))]

    def test_deterministic_across_runs(self):
        kwargs = dict(epochs=2, batch=4, lr=0.01, seed=7)
        a, _ = train_superres_onet(onet_dataset(4), ONET_CFG, SAMPLER, **kwargs)
        b, _ = train_superres_onet(onet_dataset(4), ONET_CFG, SAMPLER, **kwargs)
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k], err_msg=k)

    def test_low_resolution_labels(self):
        cfg = OnetConfig(
            coord_resolution="low", input_downsample=2, encoder_blocks=2,
            decoder_blocks=2, base_channels=4, latent_dim=16, decoder_hidden=8,
        )
        _, metrics = train_superres_onet(
            onet_dataset(4), cfg, SAMPLER, epochs=4, batch=4, lr=0.01,
            val_dataset=onet_dataset(2, seed0=30), seed=2,
        )
        assert np.mean(metrics["train_loss"][-2:]) < metrics["train_loss"][0]
        assert len(metrics["val_iou"]) == 4

    @staticmethod
    def _micro_batch_run(dtype):
        def run(micro_batch, seed):
            return train_superres_onet(
                onet_dataset(4), ONET_CFG, SAMPLER, epochs=2, batch=4, lr=0.01, seed=seed,
                micro_batch=micro_batch, dtype=dtype,
            )

        return run

    def test_micro_batch_matches_full_batch(self):
        """Chunked accumulation is an implementation detail of the memory
        budget; the resulting parameters and losses must not depend on it,
        bit for bit, down to chunks of one and chunks that do not divide the
        batch, on every trainer seed."""
        assert_micro_batches_exact(self._micro_batch_run(np.float32))

    def test_micro_batch_matches_full_batch_in_float64(self):
        assert_micro_batches_exact(self._micro_batch_run(np.float64))

    def test_float64(self):
        state, _ = train_superres_onet(
            onet_dataset(2), ONET_CFG, SAMPLER, epochs=1, batch=2, seed=0, dtype=np.float64
        )
        assert all(v.dtype == np.float64 for v in state.values())

    def test_mismatched_dims_rejected(self):
        bad = onet_dataset(2) + [make_instance((16, 16, 8), (2, 2, 2), (6, 6, 6), 9)]
        with pytest.raises(ValueError, match="share dims"):
            train_superres_onet(bad, ONET_CFG, SAMPLER, epochs=1)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            train_superres_onet([], ONET_CFG, SAMPLER, epochs=1)

    def test_single_instance_trains(self):
        """A batch of one is an ordinary batch: the loss is finite and the
        parameters move."""
        state, metrics = train_superres_onet(
            onet_dataset(1), ONET_CFG, SAMPLER, epochs=1, batch=8, seed=0
        )
        assert np.isfinite(metrics["train_loss"]).all() and len(metrics["train_loss"]) == 1
        fresh = OnetModel(ONET_CFG, seed=0).state_dict()
        assert any(not np.array_equal(state[k], fresh[k]) for k in state)

    @pytest.mark.parametrize("size,name", [
        *((size, name) for name in ("micro_batch", "batch", "smoothing_window") for size in (0, -1)),
        (-1, "epochs"),
    ])
    def test_batch_sizes_below_one_rejected(self, name, size):
        """Batch sizes start at one and epochs at zero."""
        low = 0 if name == "epochs" else 1
        with pytest.raises(ValueError, match=f"^{name} must be >= {low}"):
            train_superres_onet(onet_dataset(2), ONET_CFG, SAMPLER, **{"epochs": 1, name: size})

    def test_absurd_lr_raises(self):
        with pytest.raises(DivergenceError):
            train_superres_onet(
                onet_dataset(4), ONET_CFG, SAMPLER, epochs=30, batch=4, lr=1e4, seed=0
            )


class TestTrainHilo:
    def test_zero_epochs_returns_initial_state(self):
        queue = TrainingQueue(capacity=8)
        state, metrics = train_hilo(hilo_dataset(2), HILO_CFG, queue, epochs=0, seed=5)
        fresh = HiLoModel(HILO_CFG, seed=5).state_dict()
        for k in state:
            np.testing.assert_array_equal(state[k], fresh[k])
        assert metrics["train_loss"] == []
        assert len(queue) == 0  # a run of no steps loads nothing

    def test_loss_decreases_and_metrics_line_up(self):
        queue = TrainingQueue(capacity=8)
        _, metrics = train_hilo(
            hilo_dataset(4), HILO_CFG, queue, epochs=30, sampler=SAMPLER,
            val_dataset=hilo_dataset(2, seed0=80), lr=0.01, validate_every=10, seed=0,
        )
        tl = metrics["train_loss"]
        assert len(tl) == 30
        assert np.mean(tl[-3:]) < tl[0]
        assert metrics["val_steps"] == [10, 20, 30]
        assert len(metrics["val_iou"]) == 3
        sm = metrics["val_iou_smoothed"]
        assert metrics["best_step"] == metrics["val_steps"][int(np.argmax(sm))]
        # validation windows sit on the labeled object, so the all-empty
        # baseline scores zero overlap
        assert metrics["baseline_iou"] == 0.0

    def test_validation_every_interval_and_after_the_last_step(self):
        _, metrics = train_hilo(
            hilo_dataset(4), HILO_CFG, TrainingQueue(capacity=8), epochs=100, sampler=SAMPLER,
            val_dataset=hilo_dataset(1, seed0=80), validate_every=3, max_steps=7, seed=0,
        )
        assert metrics["val_steps"] == [3, 6, 7]
        assert len(metrics["val_iou"]) == len(metrics["val_iou_smoothed"]) == 3

    def test_validation_records_loss(self):
        _, metrics = train_hilo(
            hilo_dataset(4), HILO_CFG, TrainingQueue(capacity=8), epochs=4, sampler=SAMPLER,
            val_dataset=hilo_dataset(2, seed0=80), validate_every=2, seed=0,
        )
        assert len(metrics["val_loss"]) == len(metrics["val_steps"]) == 2
        assert np.isfinite(metrics["val_loss"]).all()

    def test_max_steps_caps_run(self):
        queue = TrainingQueue(capacity=8)
        _, metrics = train_hilo(
            hilo_dataset(4), HILO_CFG, queue, epochs=100, sampler=SAMPLER,
            max_steps=3, seed=0,
        )
        assert len(metrics["train_loss"]) == 3

    def test_deterministic_across_runs(self):
        def run():
            queue = TrainingQueue(capacity=8, policy="hardness")
            return train_hilo(
                hilo_dataset(4), HILO_CFG, queue, epochs=8, sampler=SAMPLER,
                lr=0.01, seed=11,
            )[0]

        a, b = run(), run()
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k], err_msg=k)

    @pytest.mark.parametrize("seed", range(4))
    def test_bounding_box_draw_on_mostly_air_trains(self, seed):
        """The bounding box of two corner cubes is mostly air, so many
        windows are all zero; the default draw must not diverge on them."""
        lab = np.zeros((48, 48, 48), dtype=np.uint8)
        lab[1:3, 1:3, 1:3] = 1
        lab[-3:-1, -3:-1, -3:-1] = 1
        scan = (VoxelVolume(lab.astype(np.float32) * 0.8), LabelVolume(lab))
        _, metrics = train_hilo(
            [scan, scan], HiLoConfig(batch_size=4), TrainingQueue(capacity=8), epochs=10,
            micro_batch=2, seed=seed, pyramid_sampling="bb", max_steps=6,
        )
        assert len(metrics["train_loss"]) == 6
        assert np.isfinite(metrics["train_loss"]).all()

    @pytest.mark.parametrize("decoder", ["cnn", "onet"])
    def test_micro_batch_matches_full_batch(self, decoder):
        """Micro-batching bounds memory only: the state and the losses
        must not depend on it, bit for bit, for either decoder."""
        cfg = dataclasses.replace(HILO_CFG, decoder=decoder)

        def run(micro_batch, seed):
            return train_hilo(
                hilo_dataset(4), cfg, TrainingQueue(capacity=8), epochs=4, sampler=SAMPLER,
                lr=0.01, micro_batch=micro_batch, seed=seed,
            )

        assert_micro_batches_exact(run)

    @pytest.mark.parametrize("size", [0, -1])
    def test_micro_batch_below_one_rejected(self, size):
        """Each loop setting below its minimum (one for micro_batch,
        validate_every and smoothing_window, zero for epochs and max_steps)
        is refused before the loader thread starts, so none is left running."""
        for name, low in (("micro_batch", 1), ("validate_every", 1), ("smoothing_window", 1),
                          ("epochs", 0), ("max_steps", 0)):
            if size >= low:
                continue
            with pytest.raises(ValueError, match=f"^{name} must be >= {low}"):
                train_hilo(hilo_dataset(2), HILO_CFG, TrainingQueue(capacity=8),
                           **{"epochs": 1, name: size})
            assert not any(t.name.startswith("hiloseg-loader") and t.is_alive()
                           for t in threading.enumerate())

    def test_coordinate_decoder_variant(self):
        cfg = HiLoConfig(
            window_size=8, levels=2, decoder="onet", encoder_blocks=2,
            cnn_decoder_blocks=2, onet_decoder_blocks=2, base_channels=2,
            decoder_hidden=8, batch_size=4,
        )
        queue = TrainingQueue(capacity=8)
        _, metrics = train_hilo(
            hilo_dataset(4), cfg, queue, epochs=12, sampler=SAMPLER,
            val_dataset=hilo_dataset(1, seed0=90), lr=0.01, validate_every=6, seed=1,
        )
        assert np.mean(metrics["train_loss"][-3:]) < metrics["train_loss"][0]
        assert metrics["val_steps"] == [6, 12]

    def test_volume_mode_pyramid_sampling(self):
        queue = TrainingQueue(capacity=8)
        _, metrics = train_hilo(
            hilo_dataset(4), HILO_CFG, queue, epochs=4, sampler=SAMPLER,
            pyramid_sampling="volume", seed=2,
        )
        assert len(metrics["train_loss"]) == 4

    def test_bad_pyramid_sampling_mode(self):
        with pytest.raises(ValueError, match="pyramid_sampling"):
            train_hilo(hilo_dataset(2), HILO_CFG, TrainingQueue(capacity=8),
                       epochs=1, pyramid_sampling="grid")

    def test_training_updates_queue_hardness(self):
        queue = TrainingQueue(capacity=8, policy="hardness")
        train_hilo(hilo_dataset(4), HILO_CFG, queue, epochs=5, sampler=SAMPLER, seed=3)
        hard = [e.hardness for e in queue._entries.values()]
        assert any(h < MAX_HARDNESS for h in hard)
        assert all(np.isfinite(h) for h in hard if h < MAX_HARDNESS)

    def test_load_time_never_changes_evictions(self, monkeypatch):
        """Each push falls between two steps, after the previous step's
        hardness updates, so a slow load evicts the same ids as a fast one
        and every step pushes exactly one instance."""
        cfg = dataclasses.replace(HILO_CFG, batch_size=1)

        def evictions():
            queue = TrainingQueue(capacity=2, policy="hardness")
            evicted = recording_evictions(queue)
            train_hilo(hilo_dataset(6), cfg, queue, epochs=1, sampler=SAMPLER, seed=0)
            return evicted

        fast = evictions()
        crop = train_mod._crop_to_positive_bb

        def slow_crop(item):
            time.sleep(0.15)
            return crop(item)

        monkeypatch.setattr(train_mod, "_crop_to_positive_bb", slow_crop)
        slow = evictions()
        assert slow == fast
        assert len(fast) == 6 and fast[:2] == [None, None] and None not in fast[2:]

    @pytest.mark.parametrize("steps", [1, 3])
    def test_each_step_loads_one_file_and_no_more(self, steps, monkeypatch):
        """The last step starts no load, so a run reads only the files it pushes."""
        loads = []
        crop = train_mod._crop_to_positive_bb
        monkeypatch.setattr(train_mod, "_crop_to_positive_bb",
                            lambda item: loads.append(item) or crop(item))
        queue = TrainingQueue(capacity=8)
        train_hilo(hilo_dataset(4), HILO_CFG, queue, epochs=5, sampler=SAMPLER, seed=0,
                   max_steps=steps)
        assert len(loads) == steps == len(queue)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            train_hilo([], HILO_CFG, TrainingQueue(capacity=8), epochs=1)

    def test_absurd_lr_raises(self):
        queue = TrainingQueue(capacity=8)
        with pytest.raises(DivergenceError):
            train_hilo(
                hilo_dataset(4), HILO_CFG, queue, epochs=40, sampler=SAMPLER,
                lr=1e4, seed=0,
            )
        # the loader stops with the run that raised
        assert not any(t.name.startswith("hiloseg-loader") and t.is_alive()
                       for t in threading.enumerate())
