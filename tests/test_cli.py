"""End-to-end runs of the command line on tiny synthetic data: every
subcommand, the files it writes, and the documented exit codes (0 success,
1 usage, 2 data or format, 3 divergence), never a raw traceback."""

import argparse
import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from hiloseg import cli
from hiloseg.config import config_text, config_values, parse_kv_text, read_config
from hiloseg.data_io import (
    SynthConfig,
    generate_synthetic_one,
    load_manifest,
    load_volume,
    save_volume,
)
from hiloseg.models import HiLoConfig, HiLoModel, OnetConfig, OnetModel
from hiloseg.nn.checkpoint import load_checkpoint, save_checkpoint
from hiloseg.voxel import LabelVolume

DIMS = (24, 20, 22)

TINY_CONFIG = """\
hilo.window_size = 8
hilo.encoder_blocks = 1
hilo.cnn_decoder_blocks = 1
hilo.onet_decoder_blocks = 1
hilo.base_channels = 2
hilo.decoder_hidden = 8
hilo.batch_size = 4
onet.latent_dim = 8
onet.encoder_blocks = 1
onet.decoder_blocks = 1
onet.base_channels = 2
onet.decoder_hidden = 8
onet.input_downsample = 2
sampler.n_train_coords = 64
sampler.n_hilo_coords = 32
sampler.n_test_coords = 64
"""

# the variants the fixture trains, by name -> (model family, train flags):
# the grid-decoder pyramid and the high-resolution occupancy network
VARIANTS = {
    "hilo-cnn": ("hilo", ["--max-steps", 2, "--pyramid-sampling", "volume"]),
    "onet-sr": ("onet", ["--epochs", 2, "--batch", 2]),
}

TINY_HILO = HiLoConfig(window_size=8, threshold=0.3, encoder_blocks=1, cnn_decoder_blocks=1,
                       onet_decoder_blocks=1, base_channels=2, decoder_hidden=8)


def call(*argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A generated dataset and one trained checkpoint per model family."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    data = root / "data"
    argv = ["generate", "--config", config, "--out", data,
            "--count", 8, "--dims", ",".join(map(str, DIMS))]
    code, out, _ = call(*argv)
    assert code == 0, out
    trained, argvs = {}, {"generate": [str(a) for a in argv]}
    for variant, (model, extra) in VARIANTS.items():
        argv = ["train", "--config", config, "--data", data,
                "--out", root / variant, "--model", model, *extra]
        code, out, err = call(*argv)
        assert code == 0, err
        trained[variant] = (out, root / variant)
        argvs[variant] = [str(a) for a in argv]
    return {"root": root, "config": config, "data": data, "trained": trained, "argv": argvs}


def resolve(*argv):
    return cli.resolve_config(cli.build_parser().parse_args([str(a) for a in argv]))


def test_generate_writes_dataset(run):
    data = run["data"]
    manifest = load_manifest(data / "manifest.tsv")
    records = manifest.paths()
    assert len(records) == 8
    assert manifest.paths("test")
    assert load_volume(records[0].path).dims == DIMS
    assert (data / "config_resolved.txt").is_file()


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_writes_checkpoint(run, variant):
    """Both families train from one shared config file that carries both
    model sections."""
    model = VARIANTS[variant][0]
    assert run["argv"][variant][1:3] == ["--config", str(run["config"])]
    out, out_dir = run["trained"][variant]
    assert f"trained {model}" in out
    for name in ("checkpoint.hckpt", "metrics.tsv", "config_resolved.txt"):
        assert (out_dir / name).is_file(), name
    assert f"run.model = {model}" in (out_dir / "config_resolved.txt").read_text()
    assert load_checkpoint(out_dir / "checkpoint.hckpt")[0] == model
    # both families report optimizer steps: 2 epochs of batches of 2 for onet
    n_train = len(load_manifest(run["data"] / "manifest.tsv").paths("train"))
    steps = 2 if model == "hilo" else 2 * -(-n_train // 2)
    assert f" for {steps} steps" in out


@pytest.mark.parametrize("variant", VARIANTS)
def test_eval_of_each_checkpoint(run, variant):
    """A hilo checkpoint's eval also takes the keys only its prediction reads."""
    out_dir = run["root"] / f"eval-{variant}"
    pyramid_only = ["--region-margin", 3] if variant == "hilo-cnn" else []
    code, out, err = call("eval", "--config", run["config"], "--data", run["data"],
                          "--checkpoint", run["trained"][variant][1] / "checkpoint.hckpt",
                          "--out", out_dir, *pyramid_only)
    assert code == 0, err
    assert "mean voxel IoU" in out
    rows = (out_dir / "metrics_eval.tsv").read_text().splitlines()
    assert rows[0].startswith("instance\t") and rows[-1].startswith("mean\t")


def test_segment_writes_prediction_and_slices(run):
    scan = load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path
    out_dir = run["root"] / "segment"
    code, out, err = call("segment", "--config", run["config"], "--input", scan,
                          "--checkpoint", run["trained"]["hilo-cnn"][1] / "checkpoint.hckpt",
                          "--out", out_dir, "--export-slices", "z:5")
    assert code == 0, err
    pred = load_volume(out_dir / "prediction.hv1")
    assert pred.dims == DIMS
    assert set(pred.data.ravel().tolist()) <= {0, 1}
    assert (out_dir / "slice_z0005.pgm").is_file()


def test_label_file_as_segment_input_is_a_data_error(run):
    """A label file given as the scan exits 2, as the same fault in a
    manifest record does, and writes nothing."""
    labels = run["data"] / "lab_00000.hv1"
    records = load_manifest(run["data"] / "manifest.tsv").paths()
    assert str(labels) in {r.label_path for r in records}
    out_dir = run["root"] / "segment-labels"
    code, _, err = call("segment", "--config", run["config"], "--input", labels,
                        "--checkpoint", run["trained"]["hilo-cnn"][1] / "checkpoint.hckpt",
                        "--out", out_dir)
    assert code == 2
    assert "data error" in err and "holds labels, not a scan volume" in err
    assert not out_dir.exists()


def test_unknown_flag_is_a_usage_error(run):
    code, _, err = call("train", "--data", run["data"], "--bogus")
    assert code == 1
    assert "usage error" in err
    # eval takes a checkpoint's kind from the checkpoint
    code, _, err = call("eval", "--data", run["data"], "--oracle-bypass", "--model", "hilo",
                        "--out", run["root"] / "eval-model")
    assert code == 1
    assert "--model" in err


def test_non_checkpoint_file_is_a_data_error(run):
    not_a_checkpoint = load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path
    code, _, err = call("eval", "--config", run["config"], "--data", run["data"],
                        "--checkpoint", not_a_checkpoint, "--out", run["root"] / "bad-magic")
    assert code == 2
    assert "data error" in err


def test_truncated_checkpoint_is_a_data_error(run):
    whole = (run["trained"]["hilo-cnn"][1] / "checkpoint.hckpt").read_bytes()
    truncated = run["root"] / "truncated.hckpt"
    truncated.write_bytes(whole[: len(whole) // 2])
    code, _, err = call("eval", "--config", run["config"], "--data", run["data"],
                        "--checkpoint", truncated, "--out", run["root"] / "truncated")
    assert code == 2
    assert "truncated" in err


def test_checkpoint_block_is_config_text_of_the_model_config(run):
    """A checkpoint saved with ``config_text(cfg)`` under ``cfg.kind`` segments
    with the config it stores, not with the run config's defaults."""
    ckpt = run["root"] / "config-text.hckpt"
    save_checkpoint(ckpt, TINY_HILO.kind, config_text(TINY_HILO), HiLoModel(TINY_HILO).state_dict())
    assert cli.load_model(ckpt)[1] == TINY_HILO
    scan = load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path
    code, _, err = call("segment", "--input", scan, "--checkpoint", ckpt,
                        "--out", run["root"] / "config-text")
    assert code == 0, err
    assert load_volume(run["root"] / "config-text" / "prediction.hv1").dims == DIMS


def test_trained_checkpoint_stores_its_model_config(run):
    ckpt = run["trained"]["hilo-cnn"][1] / "checkpoint.hckpt"
    kind, cfg, _ = cli.load_model(ckpt)
    assert kind == "hilo"
    assert cfg == resolve(*run["argv"]["hilo-cnn"]).hilo


def test_unreadable_checkpoint_config_is_a_data_error(run):
    """A config block with keys its model config does not have (here the
    run-config form ``hilo.window_size``) is refused, not loaded with
    defaults."""
    ckpt = run["root"] / "prefixed.hckpt"
    save_checkpoint(ckpt, TINY_HILO.kind, "hilo.window_size = 8\n",
                    HiLoModel(TINY_HILO).state_dict())
    scan = load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path
    code, _, err = call("segment", "--input", scan, "--checkpoint", ckpt,
                        "--out", run["root"] / "prefixed")
    assert code == 2
    assert "data error" in err and "hilo.window_size" in err


def test_every_flag_sets_a_config_key():
    """A flag's dest is the config key it sets, so a mistyped key fails here
    instead of silently dropping the flag, and every flag has a help line.
    The parser is the one list of the keys each command reads, so every
    ``run.*`` key has a flag on some command. ``cli._FAMILIES`` holds the
    exceptions: each entry is a key, or a section, that some command has a
    flag for and names only model families that exist, and a flag whose key
    fewer than all families read names them in its help."""
    keys = set(config_values(cli.RunConfig(), "run."))
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flagged = set()
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.dest in ("help", "config"):
                continue
            assert action.dest in keys, (name, action.option_strings, action.dest)
            assert action.help, (name, action.option_strings)
            families = cli._FAMILIES.get(action.dest,
                                         cli._FAMILIES.get(action.dest.split(".")[0] + "."))
            if families and len(families) < len(cli.MODEL_KINDS):
                assert "only" in action.help and all(f in action.help for f in families), (
                    name, action.option_strings, action.help)
            flagged.add(action.dest)
    assert {k for k in keys if k.startswith("run.")} <= flagged
    for entry, families in cli._FAMILIES.items():
        assert entry in flagged or (entry.endswith(".") and
                                    any(k.startswith(entry) for k in flagged)), entry
        assert families and set(families) <= set(cli.MODEL_KINDS), entry


def test_flag_overrides_config_file(run):
    cfg = run["root"] / "override.cfg"
    cfg.write_text("run.seed = 5\nhilo.window_size = 12\nrun.queue_policy = hardness\n")
    rc = resolve("train", "--config", cfg, "--seed", 7, "--w", 8)
    assert (rc.seed, rc.hilo.window_size, rc.queue_policy) == (7, 8, "hardness")
    assert rc.synth.seed == 7
    rc = resolve("train", "--config", cfg)
    assert (rc.seed, rc.hilo.window_size) == (5, 12)


@pytest.mark.parametrize("name", ["hilo-cnn", "onet-sr", "generate", "eval", "segment"])
def test_resolved_config_reads_back(run, name):
    """Every command's ``config_resolved.txt`` reads back to the run config
    it resolved, and as a config file it resolves to that config again."""
    argv = run["argv"].get(name)
    if argv is None:
        root = run["root"]
        scan = load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path
        argv = [str(a) for a in {
            "eval": ["eval", "--data", run["data"], "--out", root / "readback-eval",
                     "--oracle-bypass", "--bb-margin", 3],
            "segment": ["segment", "--config", run["config"], "--input", scan,
                        "--checkpoint", run["trained"]["hilo-cnn"][1] / "checkpoint.hckpt",
                        "--out", root / "readback-segment", "--region", "2,2,2:12,12,12"],
        }[name]]
        code, _, err = call(*argv)
        assert code == 0, err
    rc = resolve(*argv)
    resolved = Path(argv[argv.index("--out") + 1]) / "config_resolved.txt"
    text = resolved.read_text()
    back = read_config(cli.RunConfig(), parse_kv_text(text), "run.")
    assert back == rc
    assert config_text(back, "run.") == text
    assert resolve(argv[0], "--config", resolved) == rc


@pytest.mark.parametrize("flags,key", [
    (["--model", "onet", "--max-steps", 1], "run.max_steps"),
    (["--model", "onet", "--validate-every", 5], "run.validate_every"),
    (["--model", "onet", "--pyramid-sampling", "volume"], "run.pyramid_sampling"),
    (["--model", "onet", "--queue-size", 4, "--max-steps", 1],
     "run.max_steps, run.queue_capacity"),
    (["--model", "onet", "--resolution", "low", "--queue", "hardness"], "run.queue_policy"),
    (["--model", "onet", "--w", 8], "hilo.window_size"),
    (["--model", "onet", "--d", 3], "hilo.downsampling_factor"),
    (["--model", "onet", "--w", 8, "--levels", 3], "hilo.levels, hilo.window_size"),
    (["--model", "hilo", "--conditioning", "concat", "--resolution", "low"],
     "onet.conditioning, onet.coord_resolution"),
    (["--model", "hilo", "--decoder", "onet", "--batch", 2], "run.batch"),
    (["--model", "onet", "--decoder", "onet"], "hilo.decoder"),
])
def test_occupancy_training_refuses_pyramid_trainer_settings(run, flags, key):
    """Each family's trainer is refused the settings only the other reads:
    occupancy training (onet) has no window pyramid, pyramid decoder,
    training queue, step cap or validation cadence, and pyramid training
    (hilo) no occupancy decoder, label grid or ``run.batch``. Asking for one
    is refused before any file is written, not trained past."""
    out_dir = run["root"] / "family-refused"
    code, _, err = call("train", "--config", run["config"], "--data", run["data"],
                        "--out", out_dir, "--epochs", 3, *flags)
    assert code == 1
    assert "usage error" in err and key in err
    assert not out_dir.exists()


def test_pyramid_batch_is_hilo_batch_size(run):
    """``run.batch`` is the occupancy batch: a pyramid run given it, by flag
    (above) or from a file, is refused and pointed at ``hilo.batch_size``,
    the one key of its batch, which the checkpoint and
    ``config_resolved.txt`` record as the batch that trained."""
    run_batch = run["root"] / "run-batch.cfg"
    run_batch.write_text("run.batch = 2\n")
    code, _, err = call("train", "--config", run_batch, "--data", run["data"],
                        "--out", run["root"] / "hilo-batch", "--model", "hilo", "--decoder", "onet")
    assert code == 1
    assert "run.batch" in err and "hilo.batch_size" in err
    assert not (run["root"] / "hilo-batch").exists()

    cfg = run["root"] / "batch3.cfg"
    cfg.write_text(TINY_CONFIG.replace("hilo.batch_size = 4", "hilo.batch_size = 3"))
    out_dir = run["root"] / "hilo-batch3"
    code, out, err = call("train", "--config", cfg, "--data", run["data"], "--out", out_dir,
                          "--model", "hilo", "--epochs", 1, "--pyramid-sampling", "volume")
    assert code == 0, err
    n_train = len(load_manifest(run["data"] / "manifest.tsv").paths("train"))
    assert f" for {-(-n_train // 3)} steps" in out
    assert cli.load_model(out_dir / "checkpoint.hckpt")[1].batch_size == 3
    resolved = (out_dir / "config_resolved.txt").read_text().splitlines()
    assert "hilo.batch_size = 3" in resolved and "run.batch = -1" in resolved


def test_synth_seed_other_than_run_seed_is_refused(run):
    cfg = run["root"] / "synth-seed.cfg"
    cfg.write_text("synth.seed = 3\n")
    code, _, err = call("generate", "--config", cfg, "--seed", 4, "--count", 2,
                        "--out", run["root"] / "synth-seed")
    assert code == 1
    assert "synth.seed" in err and "run.seed" in err
    assert resolve("generate", "--config", cfg, "--seed", 3).synth.seed == 3


def test_width_is_not_a_setting(run):
    """Occupancy networks are widened by ``onet.base_channels`` alone: a
    ``--width`` flag or a ``width`` key is refused wherever it appears."""
    code, _, err = call("train", "--data", run["data"], "--model", "onet", "--width", "wide",
                        "--out", run["root"] / "width-flag")
    assert code == 1
    assert "--width" in err
    cfg = run["root"] / "width.cfg"
    cfg.write_text("onet.width = wide\n")
    code, _, err = call("generate", "--config", cfg, "--out", run["root"] / "width-cfg")
    assert code == 2
    assert "onet.width" in err
    tiny = OnetConfig(encoder_blocks=1, decoder_blocks=1, latent_dim=8, base_channels=2,
                      decoder_hidden=8, input_downsample=2)
    ckpt = run["root"] / "width.hckpt"
    save_checkpoint(ckpt, "onet", config_text(tiny) + "width = shallow\n",
                    OnetModel(tiny).state_dict())
    scan = load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path
    code, _, err = call("segment", "--input", scan, "--checkpoint", ckpt,
                        "--out", run["root"] / "width-ckpt")
    assert code == 2
    assert "data error" in err and "width" in err


@pytest.mark.parametrize("argv", [
    ("generate", "--seed", "abc"),
    ("generate", "--dims", "4,x,6"),
    ("train", "--model", "onet", "--queue", "hardness"),
])
def test_bad_flag_value_is_a_usage_error(run, argv):
    code, _, err = call(*argv, "--out", run["root"] / "bad-flag")
    assert code == 1
    assert "usage error" in err


OLD_MODEL_KINDS = ("hilo-cnn", "hilo-onet", "onet-sr", "onet-bb")


def test_old_model_kinds_are_refused(run):
    """A model names its family alone, and the kinds that also named the
    variant are refused, not mapped: by flag or file (exit 1), and in a
    checkpoint header (exit 2, naming the kind)."""
    for kind in OLD_MODEL_KINDS:
        code, _, err = call("train", "--config", run["config"], "--data", run["data"],
                            "--out", run["root"] / "old-kind-flag", "--model", kind)
        assert code == 1
        assert "usage error" in err and "--model" in err
    cfg = run["root"] / "old-kind.cfg"
    cfg.write_text("run.model = hilo-onet\n")
    code, _, err = call("train", "--config", cfg, "--data", run["data"],
                        "--out", run["root"] / "old-kind-file")
    assert code == 1
    assert "usage error" in err and "hilo-onet" in err
    assert not (run["root"] / "old-kind-flag").exists()
    assert not (run["root"] / "old-kind-file").exists()

    ckpt = run["root"] / "old-kind.hckpt"
    save_checkpoint(ckpt, "hilo-cnn", config_text(TINY_HILO), HiLoModel(TINY_HILO).state_dict())
    scan = load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path
    code, _, err = call("segment", "--input", scan, "--checkpoint", ckpt,
                        "--out", run["root"] / "old-kind-ckpt")
    assert code == 2
    assert "data error" in err and "'hilo-cnn'" in err


def test_coordinate_decoder_is_a_hilo_config(run):
    """``--decoder onet`` trains the pyramid's coordinate decoder: the
    checkpoint's kind is the family, its block holds the decoder, and it
    segments."""
    out_dir = run["root"] / "hilo-coord"
    code, out, err = call("train", "--config", run["config"], "--data", run["data"],
                          "--out", out_dir, "--model", "hilo", "--decoder", "onet",
                          "--max-steps", 1, "--pyramid-sampling", "volume")
    assert code == 0, err
    assert "trained hilo" in out
    kind, text, _, _ = load_checkpoint(out_dir / "checkpoint.hckpt")
    assert kind == "hilo"
    assert "decoder = onet" in text.splitlines()
    scan = load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path
    code, _, err = call("segment", "--input", scan, "--checkpoint", out_dir / "checkpoint.hckpt",
                        "--out", run["root"] / "hilo-coord-segment")
    assert code == 0, err
    assert load_volume(run["root"] / "hilo-coord-segment" / "prediction.hv1").dims == DIMS


def test_low_resolution_labels_are_an_onet_config(run):
    out_dir = run["root"] / "onet-low"
    code, _, err = call("train", "--config", run["config"], "--data", run["data"],
                        "--out", out_dir, "--model", "onet", "--resolution", "low",
                        "--epochs", 1, "--batch", 2)
    assert code == 0, err
    kind, text, _, _ = load_checkpoint(out_dir / "checkpoint.hckpt")
    assert kind == "onet"
    assert "coord_resolution = low" in text.splitlines()


@pytest.mark.parametrize("command,source,flags,file_text,keys", [
    ("eval", "onet", ["--region-margin", 3], "", "run.region_margin"),
    ("eval", "oracle", ["--region-margin", 3], "", "run.region_margin"),
    ("eval", "oracle", [], "run.region_margin = 4\n", "run.region_margin"),
    ("eval", "onet", [], "run.region_margin = 4\n", "run.region_margin"),
    ("segment", "onet", [], "run.region_margin = 4\n", "run.region_margin"),
    ("eval", "oracle", ["--checkpoint", "does-not-exist.hckpt"], "", "run.checkpoint"),
])
def test_predict_keys_are_refused_where_unread(run, command, source, flags, file_text, keys):
    """Eval's ``run.region_margin`` is read only when a hilo checkpoint
    predicts: an onet checkpoint or the oracle is refused it, from a flag or
    a file, before any file is written, and segment, which has no flag for
    it, is refused it too. The oracle, which opens no checkpoint, is refused
    ``run.checkpoint``."""
    name = f"unread-{command}-{source}-{'file' if file_text else 'flag'}"
    cfg = run["root"] / f"{name}.cfg"
    cfg.write_text(file_text)
    out_dir = run["root"] / name
    argv = [command, "--config", cfg, "--out", out_dir, *flags]
    if command == "eval":
        argv += ["--data", run["data"]]
    else:
        argv += ["--input", load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path]
    if source == "oracle":
        argv += ["--oracle-bypass"]
    else:
        argv += ["--checkpoint", run["trained"]["onet-sr"][1] / "checkpoint.hckpt"]
    code, _, err = call(*argv)
    assert code == 1
    assert "usage error" in err and f"not read {keys}:" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command,file_text,flags,refused", [
    ("segment", "run.bb_margin = 3\nrun.region_margin = 4\nrun.split = val\n", [],
     "does not read run.bb_margin, run.region_margin, run.split:"),
    ("generate", "run.lr = 0.5\n", [], "does not read run.lr:"),
    ("train", "run.split = val\n", ["--model", "hilo"], "does not read run.split:"),
    ("eval", "run.region = 1,1,1:4,4,4\n", [], "does not read run.region:"),
    ("segment", "", ["--seed", 4], "unrecognized arguments: --seed 4"),
], ids=["segment-eval-keys", "generate-lr", "hilo-train-split", "eval-region", "segment-seed"])
def test_keys_a_command_has_no_flag_for_are_refused(run, tmp_path, command, file_text, flags,
                                                    refused):
    """A run reads only the keys its command has a flag for: a value other
    than the default for any other ``run.*`` key, from a file, is refused by
    name before any file is written. ``segment`` draws nothing, so it has no
    ``--seed``."""
    cfg, out_dir = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(file_text)
    scan = load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path
    ckpt = run["trained"]["hilo-cnn"][1] / "checkpoint.hckpt"
    needs = {"generate": ["--count", 2], "train": ["--data", run["data"]],
             "eval": ["--data", run["data"], "--checkpoint", ckpt],
             "segment": ["--input", scan, "--checkpoint", ckpt]}[command]
    code, _, err = call(command, "--config", cfg, "--out", out_dir, *needs, *flags)
    assert code == 1
    assert "usage error" in err and refused in err
    assert not out_dir.exists()


def test_segment_of_an_onet_checkpoint_zeroes_outside_its_region(run):
    """An occupancy network decodes the whole scan; ``--region``, clamped to
    the scan, keeps the whole-scan labels inside it byte for byte and zeroes
    the rest."""
    scan = load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path
    ckpt = run["trained"]["onet-sr"][1] / "checkpoint.hckpt"
    preds = {}
    for name, region in (("whole", []), ("region", ["--region=-3,5,4:15,30,16"])):
        out_dir = run["root"] / f"onet-{name}"
        code, _, err = call("segment", "--input", scan, "--checkpoint", ckpt,
                            "--out", out_dir, *region)
        assert code == 0, err
        preds[name] = load_volume(out_dir / "prediction.hv1").data
    inside = np.zeros(DIMS, dtype=bool)
    inside[0:16, 5:20, 4:17] = True
    assert preds["whole"][inside].any() and preds["whole"][~inside].any()
    assert preds["region"][inside].tobytes() == preds["whole"][inside].tobytes()
    assert not preds["region"][~inside].any()


@pytest.mark.parametrize("variant", VARIANTS)
def test_region_with_a_negative_bound_is_clamped_to_the_scan(run, variant):
    """``--region -3,5,4:15,30,16`` is a value, not an option: it segments
    as the region clamped to the scan, ``0,5,4:15,19,16``, and nothing
    outside it."""
    scan = load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path
    ckpt = run["trained"][variant][1] / "checkpoint.hckpt"
    preds = {}
    for region in ("-3,5,4:15,30,16", "0,5,4:15,19,16"):
        out_dir = run["root"] / f"region-{variant}-{region}"
        code, _, err = call("segment", "--input", scan, "--checkpoint", ckpt,
                            "--out", out_dir, "--region", region)
        assert code == 0, err
        preds[region] = load_volume(out_dir / "prediction.hv1").data
    outside = np.ones(DIMS, dtype=bool)
    outside[0:16, 5:20, 4:17] = False
    assert preds["-3,5,4:15,30,16"][~outside].any()
    assert not preds["-3,5,4:15,30,16"][outside].any()
    assert preds["-3,5,4:15,30,16"].tobytes() == preds["0,5,4:15,19,16"].tobytes()


def test_threads_is_not_a_setting(run, tmp_path):
    """Tiles run one at a time, so ``--threads`` is an unrecognized argument
    (exit 1) and a file's ``run.threads``, as in a ``config_resolved.txt``
    written while it was a setting, an unknown key (exit 2)."""
    scan = load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path
    ckpt = run["trained"]["hilo-cnn"][1] / "checkpoint.hckpt"
    for command, needs in (("eval", ["--data", run["data"]]), ("segment", ["--input", scan])):
        code, _, err = call(command, *needs, "--checkpoint", ckpt, "--threads", 1,
                            "--out", tmp_path / command)
        assert code == 1
        assert "unrecognized arguments: --threads 1" in err
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("run.threads = 1\n")
    code, _, err = call("segment", "--config", cfg, "--input", scan, "--checkpoint", ckpt,
                        "--out", tmp_path / "file")
    assert code == 2
    assert "run.threads" in err
    assert not any(tmp_path.glob("*/config_resolved.txt"))


# how a record's two files disagree -> what the refusal says
DATA_FAULTS = {
    "volume-holds-labels": "the volume file holds labels",
    "labels-hold-a-scan": "the label file holds a scan",
    "dims-differ": "dims differ",
}


@pytest.mark.parametrize("command", ["train-hilo", "train-onet", "eval"])
@pytest.mark.parametrize("fault", DATA_FAULTS)
def test_record_whose_files_disagree_is_a_data_error(run, tmp_path, fault, command):
    """A record's volume file must hold a scan and its label file labels of
    the same dims: a manifest with its columns swapped, with a scan for
    labels, or with every label file cut short trains neither family and
    evaluates nothing, but exits 2 naming both files of a record."""
    records = load_manifest(run["data"] / "manifest.tsv").paths()
    rows = []
    for i, r in enumerate(records):
        vol, lab = r.path, r.label_path
        if fault == "volume-holds-labels":
            vol, lab = lab, vol
        elif fault == "labels-hold-a-scan":
            lab = vol
        else:
            lab = tmp_path / f"cut_{i:05d}.hv1"
            save_volume(lab, LabelVolume(load_volume(r.label_path).data[:, :, :-2]))
        rows.append(f"{vol}\t{lab}\t{r.split}")
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.tsv").write_text("\n".join(rows) + "\n")
    argv = {"train-hilo": ["train", "--model", "hilo", "--max-steps", 1],
            "train-onet": ["train", "--model", "onet", "--epochs", 1, "--batch", 2],
            "eval": ["eval", "--checkpoint", run["trained"]["hilo-cnn"][1] / "checkpoint.hckpt"],
            }[command]
    code, _, err = call(*argv, "--config", run["config"], "--data", data,
                        "--out", tmp_path / "out")
    assert code == 2
    assert "data error" in err and DATA_FAULTS[fault] in err
    bad = load_manifest(data / "manifest.tsv").paths()
    assert any(r.path in err and r.label_path in err for r in bad)


def _train_on(run, tmp_path, rows, *flags):
    """``train`` on a data directory whose manifest lists ``rows``, each a
    (scan path, label path, split) triple; returns (exit code, stderr)."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.tsv").write_text("".join(f"{v}\t{lab}\t{s}\n" for v, lab, s in rows))
    code, _, err = call("train", "--config", run["config"], "--data", data,
                        "--out", tmp_path / "out", *flags)
    return code, err


@pytest.mark.parametrize("model, says", [
    ("onet", "requires at least one positive voxel"),
    ("hilo", "instance has no positive voxels"),
], ids=["onet", "hilo"])
def test_labels_without_a_gun_voxel_are_a_data_error(run, tmp_path, model, says):
    """Label files with no positive voxel train neither family: the
    occupancy trainer cannot bias its draw toward the gun, the pyramid
    trainer cannot crop to it. Both exit 2 and write no checkpoint."""
    rows = []
    for i, r in enumerate(load_manifest(run["data"] / "manifest.tsv").paths()):
        empty = tmp_path / f"empty_{i:05d}.hv1"
        save_volume(empty, LabelVolume(np.zeros_like(load_volume(r.label_path).data)))
        rows.append((r.path, empty, r.split))
    flags = {"onet": ["--epochs", 1, "--batch", 2], "hilo": ["--max-steps", 1]}[model]
    code, err = _train_on(run, tmp_path, rows, "--model", model, *flags)
    assert code == 2
    assert "data error" in err and says in err
    assert not (tmp_path / "out" / "checkpoint.hckpt").exists()


def test_scans_of_other_dims_are_a_data_error_for_the_occupancy_trainer(run, tmp_path):
    """The occupancy trainer batches whole pooled scans, so a training scan
    of other dims exits 2, naming the dims of the scans."""
    rows = [(r.path, r.label_path, r.split)
            for r in load_manifest(run["data"] / "manifest.tsv").paths()]
    other = (DIMS[0] + 2,) + DIMS[1:]
    vol, labels = generate_synthetic_one(SynthConfig(dims=other, seed=5), 0)
    save_volume(tmp_path / "wide.hv1", vol)
    save_volume(tmp_path / "wide_lab.hv1", labels)
    rows.append((tmp_path / "wide.hv1", tmp_path / "wide_lab.hv1", "train"))
    code, err = _train_on(run, tmp_path, rows, "--model", "onet", "--epochs", 1, "--batch", 2)
    assert code == 2
    assert "data error" in err and "share dims" in err
    assert str(DIMS) in err and str(other) in err


def test_checkpoint_with_a_non_finite_parameter_is_a_data_error(run):
    """A checkpoint holding a NaN does not segment to an empty mask: it
    exits 2, naming the entry, and writes nothing."""
    state = HiLoModel(TINY_HILO).state_dict()
    name = sorted(state)[0]
    state[name] = state[name].copy()
    state[name].reshape(-1)[0] = np.nan
    ckpt = run["root"] / "nan.hckpt"
    save_checkpoint(ckpt, TINY_HILO.kind, config_text(TINY_HILO), state)
    scan = load_manifest(run["data"] / "manifest.tsv").paths("test")[0].path
    out_dir = run["root"] / "segment-nan"
    code, out, err = call("segment", "--input", scan, "--checkpoint", ckpt, "--out", out_dir)
    assert code == 2
    assert "data error" in err and repr(name) in err and "non-finite" in err
    assert not out_dir.exists()


def test_unknown_config_key_is_a_data_error(run):
    cfg = run["root"] / "unknown-key.cfg"
    cfg.write_text("hilo.window = 8\n")
    code, _, err = call("generate", "--config", cfg, "--out", run["root"] / "unknown-key")
    assert code == 2
    assert "hilo.window" in err


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_learning_rate_is_a_usage_error(run, lr):
    out_dir = run["root"] / f"lr-{lr}"
    code, _, err = call("train", "--config", run["config"], "--data", run["data"],
                        "--out", out_dir, "--max-steps", 1, "--lr", lr)
    assert code == 1
    assert "usage error" in err and "lr" in err
    assert not out_dir.exists()


def test_non_finite_weights_after_the_last_step_exit_three(run):
    """The loss of a run's only step comes before its update, so only the
    weights show that the update overflowed: the run diverges, and no
    checkpoint is written."""
    out_dir = run["root"] / "lr-huge"
    with np.errstate(over="ignore", invalid="ignore"):  # the update overflows on purpose
        code, _, err = call("train", "--config", run["config"], "--data", run["data"],
                            "--out", out_dir, "--max-steps", 1, "--lr", 1e300,
                            "--pyramid-sampling", "volume")
    assert code == 3
    assert "diverged" in err and "non-finite parameters" in err
    assert not (out_dir / "checkpoint.hckpt").exists()


def test_divergence_exits_three(run):
    code, _, err = call("train", "--config", run["config"], "--data", run["data"],
                        "--out", run["root"] / "diverged", "--model", "onet",
                        "--lr", 10000, "--epochs", 30, "--batch", 2)
    assert code == 3
    assert "diverged" in err
