"""Command line entry points: generate, train, eval, segment.

One process per run. Configuration is resolved as defaults < config file <
flags, through ``config``'s one reader and writer. Each value has one key,
and a flag is that key: its argparse ``dest`` is the key it sets (``--w``
sets ``hilo.window_size``, ``--seed`` sets ``run.seed``), and ``--help``
shows that key as its metavar. The model, ``run.model`` and a checkpoint's
kind, is the family: ``hilo`` (window pyramid) or ``onet`` (occupancy
network). The variant is its config, so the paper's four are ``--model
hilo``, ``--model hilo --decoder onet``, ``--model onet`` and ``--model
onet --resolution low``. A key the run does not read is refused, not
dropped: a key that names no setting (exit 2), and a value other than its
default that the run does not read (exit 1, before any file is written). A
run reads the keys its command has a flag for, less those ``_FAMILIES``
gives only to other model families than the run's: ``run.model`` for
``train``, the checkpoint's kind for ``eval`` and ``segment``, none for
``generate`` and the oracle. So ``run.batch`` is the occupancy batch and
``hilo.batch_size`` the pyramid batch. The rule covers every ``run.*`` key,
from a flag or a file, and every flag; a file's ``hilo.*``, ``onet.*``,
``sampler.*`` and ``synth.*`` sections are exempt, so one file serves every
command. ``run.seed`` is the only seed: it overwrites ``synth.seed``, and a
``synth.seed`` that differs from it is refused (exit 1). Every command
echoes the fully resolved configuration into its output directory as
``config_resolved.txt``, which reads back as a config file, so a run is
reproducible from that file alone.

A hilo checkpoint predicts its tiles one at a time. ``--region`` bounds may
be negative and are clamped to the scan.

Exit codes: 0 success, 1 usage error, 2 data or format error, 3 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import coerce_value, config_text, config_values, parse_kv_text, read_config, with_values
from .data_io import (
    SPLITS,
    SynthConfig,
    load_manifest,
    load_record,
    load_volume,
    save_volume,
    volume_dims,
    write_atomic,
    write_dataset,
    write_pgm,
)
from .errors import DivergenceError, FormatError
from .inference import BoundingBox, bb_iou, mise_evaluate, sampled_iou, segment_volume, voxel_iou
from .models import (
    DECODERS,
    HiLoConfig,
    HiLoModel,
    OnetConfig,
    OnetModel,
    extract_bounding_box,
    onet_decode,
    onet_encode,
    train_hilo,
    train_superres_onet,
)
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .queue import POLICIES, TrainingQueue
from .sampling import SamplerConfig
from .voxel import LabelVolume, VoxelVolume

log = logging.getLogger(__name__)

# model family -> (config class, model class); a checkpoint's header holds the
# family and its config block ``config_text`` of the model's config
MODEL_KINDS = {"hilo": (HiLoConfig, HiLoModel), "onet": (OnetConfig, OnetModel)}

# refuse occupancy training that would page whole volumes past this
_ONET_RAM_BUDGET = 1 << 30
# key, or section ending in ".", -> the model families that read it; a run
# reads every other key its command has a flag for, whatever its family
_FAMILIES = {
    **dict.fromkeys(("hilo.", "run.queue_policy", "run.queue_capacity", "run.max_steps",
                     "run.validate_every", "run.pyramid_sampling", "run.region_margin"),
                   ("hilo",)),
    **dict.fromkeys(("onet.", "run.batch"), ("onet",)),
    "run.checkpoint": ("hilo", "onet"),
}


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Every setting of a run, flags and module configs together.

    ``model`` is the family; ``hilo.decoder`` or ``onet.coord_resolution``
    picks its variant. A run reads the keys its command has flags for, less
    other families' keys (module docstring). ``batch`` is the occupancy
    batch; the pyramid batch is ``hilo.batch_size``. ``epochs`` and ``batch``
    of -1 leave them to the trainer's defaults; ``max_steps`` 0 means no cap.
    ``lr`` must be positive and finite.
    """

    model: str = "hilo"
    seed: int = 0
    precision: str = "float32"
    epochs: int = -1
    batch: int = -1
    lr: float = 0.001
    micro_batch: int = 2
    max_steps: int = 0
    validate_every: int = 128
    smoothing_window: int = 5
    queue_policy: str = "fifo"
    queue_capacity: int = 512
    pyramid_sampling: str = "bb"
    count: int = 32
    split: str = "test"
    region_margin: int = 50
    bb_margin: int = 10
    oracle_bypass: bool = False
    data_dir: str = ""
    out_dir: str = ""
    checkpoint: str = ""
    input_path: str = ""
    region: str = ""
    export_slices: str = ""
    onet: OnetConfig = field(default_factory=OnetConfig)
    hilo: HiLoConfig = field(default_factory=HiLoConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def __post_init__(self) -> None:
        if self.model not in MODEL_KINDS:
            raise ValueError(f"model must be one of {tuple(MODEL_KINDS)}, got {self.model!r}")
        if self.precision not in ("float32", "float64"):
            raise ValueError(f"precision must be float32 or float64, got {self.precision!r}")
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        if self.queue_policy not in POLICIES:
            raise ValueError(f"queue policy must be one of {POLICIES}, got {self.queue_policy!r}")
        if self.pyramid_sampling not in ("bb", "volume"):
            raise ValueError(f"pyramid_sampling must be 'bb' or 'volume', got {self.pyramid_sampling!r}")
        if self.epochs < -1:
            raise ValueError(f"epochs must be >= 0 (-1 = family default), got {self.epochs}")
        if self.batch < -1 or self.batch == 0:
            raise ValueError(f"batch must be >= 1 (-1 = family default), got {self.batch}")
        for name, minimum in (
            ("micro_batch", 1), ("validate_every", 1), ("smoothing_window", 1),
            ("queue_capacity", 1), ("count", 1), ("max_steps", 0),
            ("region_margin", 0), ("bb_margin", 0), ("seed", 0),
        ):
            if getattr(self, name) < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {getattr(self, name)}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")

    @property
    def dtype(self):
        return np.float32 if self.precision == "float32" else np.float64


# ---------------------------------------------------------------------------
# config resolution: defaults < config file < flags


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_kv: dict[str, str] = {}
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        file_kv = parse_kv_text(text, source=str(args.config))
    # a flag's dest is its config key; only the dotted dests are settings
    flags = {k: v for k, v in vars(args).items() if "." in k and v is not None}
    rc = with_values(read_config(RunConfig(), file_kv, "run."), flags, "run.")
    # eval and segment learn their family from the checkpoint, and refuse then
    if args.subcommand in ("generate", "train"):
        _refuse_unread(rc, args.subcommand, rc.model if args.subcommand == "train" else None, flags)
    if "synth.seed" in file_kv.keys() | flags.keys() and rc.synth.seed != rc.seed:
        raise UsageError(
            f"synth.seed = {rc.synth.seed} differs from run.seed = {rc.seed}; run.seed "
            "(--seed) is the only seed, so set that instead"
        )
    rc.synth = dataclasses.replace(rc.synth, seed=rc.seed)
    return rc


def _refuse_unread(rc: RunConfig, command: str, family: str | None, flags=()) -> None:
    """Refuse each non-default ``run.*`` key and flag key (``flags``) that a
    ``command`` run of model ``family`` (None: no model) does not read: the
    command has no flag for it, or ``_FAMILIES`` gives it other families."""
    values, defaults = config_values(rc, "run."), config_values(RunConfig(), "run.")
    # a command's parsed namespace holds the dest of each of its flags
    own = vars(build_parser().parse_args([command]))

    def reads(key: str) -> bool:
        families = _FAMILIES.get(key, _FAMILIES.get(key.split(".")[0] + "."))
        return key in own and (families is None or family in families)

    keys = {k for k in values if k.startswith("run.")} | set(flags)
    unread = sorted(k for k in keys if values[k] != defaults[k] and not reads(k))
    if unread:
        batch = "; the pyramid batch is hilo.batch_size" if "run.batch" in unread else ""
        raise UsageError(f"{command} ({family or 'no'} model) does not read "
                         f"{', '.join(unread)}: --help lists what it reads{batch}. Drop them.")


def _write_resolved(rc: RunConfig, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "config_resolved.txt", config_text(rc, "run.").encode())


def _require(command: str, **fields_needed) -> None:
    for flag, value in fields_needed.items():
        if not value:
            raise UsageError(f"{command} needs --{flag} (or the matching config key)")


# ---------------------------------------------------------------------------
# model plumbing


def load_model(path):
    """Rebuild (kind, config, model) from a checkpoint file."""
    kind, text, state, _ = load_checkpoint(path)
    if kind not in MODEL_KINDS:
        raise FormatError(f"{path}: unknown model kind {kind!r}, not {' or '.join(MODEL_KINDS)}")
    cfg_cls, model_cls = MODEL_KINDS[kind]
    kv = parse_kv_text(text, source=f"{path} config block")
    try:
        cfg = read_config(cfg_cls(), kv)
        model = model_cls(cfg)
        model.load_state_dict(state)
    except ValueError as exc:
        raise FormatError(f"{path}: checkpoint does not match its config ({exc})") from exc
    return kind, cfg, model


def _predict_mask(kind, cfg, model, vol: VoxelVolume, region: BoundingBox | None) -> LabelVolume:
    """Binary prediction over a full volume for either model family."""
    if kind == "hilo":
        return segment_volume(vol, model, cfg, region)
    latent = onet_encode(vol, cfg, model)

    def decode(coords):
        return onet_decode(coords, latent, cfg, model, dims=vol.dims)

    pred = mise_evaluate(decode, vol.dims, initial_factor=8, threshold=cfg.threshold)
    if region is None:
        return pred
    clamped, out = region.clamp(vol.dims), np.zeros(vol.dims, dtype=np.uint8)
    if not clamped.is_empty:
        inside = tuple(slice(a, b + 1) for a, b in zip(clamped.min, clamped.max))
        out[inside] = pred.data[inside]
    return LabelVolume(out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(rc: RunConfig) -> int:
    _require("generate", out=rc.out_dir)
    manifest = write_dataset(rc.out_dir, rc.synth, rc.count)
    _write_resolved(rc, rc.out_dir)
    c = manifest.counts
    print(
        f"wrote {rc.count} instances to {rc.out_dir} "
        f"(train {c['train']}, val {c['val']}, test {c['test']})"
    )
    return 0


def _given(**sizes: int) -> dict[str, int]:
    """The trainer arguments a run set; -1 leaves the trainer's default."""
    return {name: value for name, value in sizes.items() if value != -1}


def _train_onet(rc: RunConfig, train_recs, val_recs):
    dims = volume_dims(train_recs[0].path)
    vol_bytes = 4 * int(np.prod(dims))
    pooled = vol_bytes // max(1, rc.onet.input_downsample) ** 3
    label_bytes = int(np.prod(dims)) if rc.onet.coord_resolution == "high" else pooled // 4
    estimate = vol_bytes + len(train_recs) * (pooled + label_bytes)
    if estimate > _ONET_RAM_BUDGET:
        raise UsageError(
            f"occupancy training would hold ~{estimate / 2**20:.0f} MiB of volumes "
            f"in memory (budget {_ONET_RAM_BUDGET / 2**20:.0f} MiB); reduce the "
            "instance count or input scale, or train a memory-bounded hilo model"
        )
    return train_superres_onet(
        train_recs, rc.onet, rc.sampler, **_given(epochs=rc.epochs, batch=rc.batch),
        val_dataset=val_recs, lr=rc.lr, micro_batch=rc.micro_batch,
        seed=rc.seed, dtype=rc.dtype, smoothing_window=rc.smoothing_window,
    )


def _train_hilo(rc: RunConfig, train_recs, val_recs):
    queue = TrainingQueue(rc.queue_capacity, rc.queue_policy)
    return train_hilo(
        train_recs, rc.hilo, queue, **_given(epochs=rc.epochs), sampler=rc.sampler,
        val_dataset=val_recs, lr=rc.lr, validate_every=rc.validate_every,
        micro_batch=rc.micro_batch, seed=rc.seed,
        smoothing_window=rc.smoothing_window, pyramid_sampling=rc.pyramid_sampling,
        max_steps=rc.max_steps or None, dtype=rc.dtype,
    )


def cmd_train(rc: RunConfig) -> int:
    _require("train", data=rc.data_dir, out=rc.out_dir)
    manifest = load_manifest(Path(rc.data_dir) / "manifest.tsv")
    train_recs = manifest.paths("train")
    val_recs = manifest.paths("val")
    if not train_recs:
        raise UsageError(f"no training instances in {rc.data_dir}")
    _write_resolved(rc, rc.out_dir)
    train, cfg = (_train_onet, rc.onet) if rc.model == "onet" else (_train_hilo, rc.hilo)
    state, fit = train(rc, train_recs, val_recs)

    out_dir = Path(rc.out_dir)
    ckpt = out_dir / "checkpoint.hckpt"
    save_checkpoint(ckpt, rc.model, config_text(cfg), state)
    lines = ["step\tloss\tsmoothed_iou"]
    lines += [f"{step}\t{fit['train_loss'][step - 1]:.6f}\t{iou:.6f}"
              for step, iou in zip(fit["val_steps"], fit["val_iou_smoothed"])]
    write_atomic(out_dir / "metrics.tsv", ("\n".join(lines) + "\n").encode())
    best = f"step {fit['best_step']}" if fit["best_step"] is not None else "final"
    tail = f", best at {best}" if fit["val_steps"] else ""
    print(f"trained {rc.model} for {len(fit['train_loss'])} steps{tail}; checkpoint at {ckpt}")
    return 0


def cmd_eval(rc: RunConfig) -> int:
    _require("eval", data=rc.data_dir, out=rc.out_dir)
    if not rc.oracle_bypass:
        _require("eval", checkpoint=rc.checkpoint)
    manifest = load_manifest(Path(rc.data_dir) / "manifest.tsv")
    records = manifest.paths(rc.split)
    if not records:
        raise UsageError(f"no {rc.split!r} instances in {rc.data_dir}")
    kind, cfg, model = (None, None, None) if rc.oracle_bypass else load_model(rc.checkpoint)
    _refuse_unread(rc, "eval", kind)
    _write_resolved(rc, rc.out_dir)

    rows = []
    for rec in records:
        vol, truth = load_record(rec)
        tmask = truth.data != 0
        tight_bb = BoundingBox.from_points(np.argwhere(tmask))
        # both boxes go through the same margin construction, so BB IoU
        # measures localization rather than the margin itself
        truth_bb = extract_bounding_box(tmask, margin=rc.bb_margin, dims=vol.dims)
        if rc.oracle_bypass:
            pred = LabelVolume(tmask.astype(np.uint8))
        else:
            region = None
            if kind == "hilo" and not tight_bb.is_empty:
                region = tight_bb.expand(rc.region_margin).clamp(vol.dims)
            pred = _predict_mask(kind, cfg, model, vol, region)
        pred_bb = extract_bounding_box(pred.data != 0, margin=rc.bb_margin, dims=vol.dims)
        grid = pred.data

        def lookup(coords):
            return grid[coords[:, 0], coords[:, 1], coords[:, 2]].astype(np.float64)

        rows.append(
            (
                Path(rec.path).name,
                voxel_iou(pred, truth),
                bb_iou(pred_bb, truth_bb),
                sampled_iou(lookup, truth, n=rc.sampler.n_test_coords, seed=rc.seed),
            )
        )

    means = [float(np.mean([r[i] for r in rows])) for i in (1, 2, 3)]
    out_dir = Path(rc.out_dir)
    lines = ["instance\tvoxel_iou\tbb_iou\tsampled_iou"]
    lines += [f"{name}\t{v:.6f}\t{b:.6f}\t{s:.6f}" for name, v, b, s in rows]
    lines += [f"mean\t{means[0]:.6f}\t{means[1]:.6f}\t{means[2]:.6f}"]
    write_atomic(out_dir / "metrics_eval.tsv", ("\n".join(lines) + "\n").encode())
    print(
        f"evaluated {len(rows)} {rc.split} instances: mean voxel IoU {means[0]:.4f}, "
        f"BB IoU {means[1]:.4f}, sampled IoU {means[2]:.4f}"
    )
    return 0


def _parse_region(text: str) -> BoundingBox:
    try:
        lo_txt, hi_txt = text.split(":")
        lo = tuple(int(p) for p in lo_txt.split(","))
        hi = tuple(int(p) for p in hi_txt.split(","))
        if len(lo) != 3 or len(hi) != 3:
            raise ValueError
    except ValueError:
        raise UsageError(
            f"bad region {text!r}; expected 'x0,y0,z0:x1,y1,z1' inclusive bounds"
        ) from None
    return BoundingBox(lo, hi)


_AXES = {"x": 0, "y": 1, "z": 2, "0": 0, "1": 1, "2": 2}


def _parse_slices(text: str) -> list[tuple[int, int]]:
    out = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) != 2 or parts[0].strip() not in _AXES:
            raise UsageError(f"bad slice {entry!r}; expected axis:index like z:40")
        try:
            idx = int(parts[1])
        except ValueError:
            raise UsageError(f"bad slice index in {entry!r}") from None
        out.append((_AXES[parts[0].strip()], idx))
    return out


def cmd_segment(rc: RunConfig) -> int:
    _require("segment", input=rc.input_path, checkpoint=rc.checkpoint, out=rc.out_dir)
    vol = load_volume(rc.input_path)
    if not isinstance(vol, VoxelVolume):
        raise UsageError(f"{rc.input_path} holds labels, not a scan volume")
    slices = _parse_slices(rc.export_slices) if rc.export_slices else []
    for axis, idx in slices:
        if not 0 <= idx < vol.dims[axis]:
            raise UsageError(f"slice index {idx} outside axis extent {vol.dims[axis]}")
    region = _parse_region(rc.region) if rc.region else None
    kind, cfg, model = load_model(rc.checkpoint)
    _refuse_unread(rc, "segment", kind)
    _write_resolved(rc, rc.out_dir)

    pred = _predict_mask(kind, cfg, model, vol, region)
    out_dir = Path(rc.out_dir)
    pred_path = out_dir / "prediction.hv1"
    save_volume(pred_path, pred)
    written = [str(pred_path)]
    for axis, idx in slices:
        image = np.take(pred.data, idx, axis=axis)
        name = f"slice_{'xyz'[axis]}{idx:04d}.pgm"
        write_pgm(out_dir / name, image)
        written.append(str(out_dir / name))
    positive = int(np.count_nonzero(pred.data))
    print(f"segmented {rc.input_path}: {positive} positive voxels; wrote {', '.join(written)}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a region with a negative first bound (-3,5,4:15,30,16) is a value, not an option
        self._negative_number_matcher = re.compile(
            self._negative_number_matcher.pattern + r"|^-\d+(,-?\d+){2}:-?\d+(,-?\d+){2}$")

    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _add_common(p: argparse.ArgumentParser, draws: bool = True) -> None:
    p.add_argument("--config", help="key = value config file")
    if draws:
        p.add_argument("--seed", dest="run.seed", type=int, help="seed for every random stream")
    p.add_argument("--out", dest="run.out_dir", help="output directory")


def _dims(text: str) -> tuple[int, ...]:
    return coerce_value(text, (0, 0, 0))


def build_parser() -> argparse.ArgumentParser:
    """Each command's flags are the keys it reads; ``_FAMILIES`` the exceptions."""
    p = _Parser(prog="hiloseg", description="Memory-bounded 3D semantic segmentation.")
    sub = p.add_subparsers(dest="subcommand", metavar="command", parser_class=_Parser)
    sub.required = True

    g = sub.add_parser("generate", help="write a synthetic dataset with a split manifest")
    _add_common(g)
    g.add_argument("--count", dest="run.count", type=int, help="number of instances")
    g.add_argument("--dims", dest="synth.dims", type=_dims, help="volume dims, e.g. 160,104,154")

    t = sub.add_parser("train", help="train a model on a generated dataset")
    _add_common(t)
    t.add_argument("--data", dest="run.data_dir", help="dataset directory (holds manifest.tsv)")
    t.add_argument("--model", dest="run.model", choices=MODEL_KINDS,
                   help="model family: hilo (window pyramid) or onet (occupancy network); "
                   "the variant is its config, --decoder or --resolution")
    t.add_argument("--w", dest="hilo.window_size", type=int, help="window size; hilo only")
    t.add_argument("--d", dest="hilo.downsampling_factor", type=int,
                   help="downsampling factor between pyramid levels; hilo only")
    t.add_argument("--levels", dest="hilo.levels", type=int, help="pyramid level count; hilo only")
    t.add_argument("--decoder", dest="hilo.decoder", choices=DECODERS,
                   help="cnn (grid) or onet (coordinates); hilo only")
    t.add_argument("--queue", dest="run.queue_policy", choices=POLICIES, help="queue policy; hilo only")
    t.add_argument("--queue-size", dest="run.queue_capacity", type=int, help="queue size; hilo only")
    t.add_argument("--conditioning", dest="onet.conditioning", choices=("cbn", "concat"),
                   help="how the latent conditions the decoder; onet only")
    t.add_argument("--resolution", dest="onet.coord_resolution", choices=("high", "low"),
                   help="label grid: high, or low for the box extractor; onet only")
    t.add_argument("--epochs", dest="run.epochs", type=int, help="epochs (-1: trainer default)")
    t.add_argument("--batch", dest="run.batch", type=int,
                   help="batch (-1: trainer default); onet only, hilo's is hilo.batch_size")
    t.add_argument("--lr", dest="run.lr", type=float, help="Adam learning rate")
    t.add_argument("--micro-batch", dest="run.micro_batch", type=int, help="entries per backward")
    t.add_argument("--max-steps", dest="run.max_steps", type=int, help="step cap (0: none); hilo only")
    t.add_argument("--validate-every", dest="run.validate_every", type=int,
                   help="steps between validations; hilo only")
    t.add_argument("--smoothing-window", dest="run.smoothing_window", type=int,
                   help="validations averaged to pick the best step")
    t.add_argument("--pyramid-sampling", dest="run.pyramid_sampling", choices=("bb", "volume"),
                   help="draw pyramid centers in the object's box or anywhere; hilo only")
    t.add_argument("--precision", dest="run.precision", choices=("float32", "float64"),
                   help="float type of parameters and activations")

    e = sub.add_parser("eval", help="report IoU metrics for a checkpoint on a split")
    _add_common(e)
    e.add_argument("--data", dest="run.data_dir", help="dataset directory (holds manifest.tsv)")
    e.add_argument("--checkpoint", dest="run.checkpoint", help="checkpoint to score, not the oracle")
    e.add_argument("--split", dest="run.split", choices=SPLITS, help="split to score")
    e.add_argument("--region-margin", dest="run.region_margin", type=int,
                   help="margin of the segmented box around the truth; hilo checkpoints only")
    e.add_argument("--bb-margin", dest="run.bb_margin", type=int, help="margin of the scored boxes")
    e.add_argument(
        "--oracle-bypass", dest="run.oracle_bypass", action="store_const", const=True,
        help="score ground truth against itself instead of running the model",
    )

    s = sub.add_parser("segment", help="segment one volume file")
    _add_common(s, draws=False)
    s.add_argument("--input", dest="run.input_path", help="volume file to segment")
    s.add_argument("--checkpoint", dest="run.checkpoint", help="checkpoint to segment with")
    s.add_argument("--region", dest="run.region", help="restrict to x0,y0,z0:x1,y1,z1 (inclusive)")
    s.add_argument("--export-slices", dest="run.export_slices",
                   help="comma-separated axis:index entries, e.g. z:40,y:12")
    return p


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "segment": cmd_segment,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](resolve_config(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:  # before ValueError: FormatError subclasses it
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
