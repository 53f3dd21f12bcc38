"""Checkpoint files: round trip, atomic replacement (of every file the
package writes), and corrupt files."""

import os

import numpy as np
import pytest

from hiloseg import cli, data_io
from hiloseg.data_io import DatasetManifest, ManifestRecord, save_volume, write_pgm
from hiloseg.errors import FormatError
from hiloseg.nn.checkpoint import load_checkpoint, save_checkpoint
from hiloseg.voxel import VoxelVolume

STATE = {
    "stem.w": np.arange(24, dtype=np.float32).reshape(2, 3, 4),
    "stem.b": np.array([0.5, -1.25], dtype=np.float32),
    "scale": np.array(3.0, dtype=np.float32),
}
OPTIMIZER = {
    "step": 7, "lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
    "m": {"stem.b": np.array([0.1, 0.2], dtype=np.float32)},
    "v": {"stem.b": np.array([0.01, 0.02], dtype=np.float32)},
}


# writer -> (the file name it writes, write(path, i)); i = 0 and 1 write
# different bytes
WRITERS = {
    "checkpoint": ("model.hckpt", lambda p, i: save_checkpoint(p, "hilo", f"a = {i}\n", STATE)),
    "volume": ("v.vol", lambda p, i: save_volume(p, VoxelVolume(np.full((2, 3, 4), i, np.float32)))),
    "manifest": ("manifest.tsv",
                 lambda p, i: DatasetManifest([ManifestRecord(f"v{i}", "l", "train")]).save(p)),
    "pgm": ("s.pgm", lambda p, i: write_pgm(p, np.full((2, 3), i, np.uint8))),
    "config_resolved": ("config_resolved.txt",
                        lambda p, i: cli._write_resolved(cli.RunConfig(seed=i), p.parent)),
}


def assert_tables_equal(got, want):
    assert list(got) == list(want)
    for name, value in want.items():
        assert got[name].dtype == np.float32
        np.testing.assert_array_equal(got[name], value, err_msg=name)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.hckpt"
        save_checkpoint(path, "hilo", "window_size = 8\n", STATE)
        kind, config_text, state, optimizer = load_checkpoint(path)
        assert (kind, config_text, optimizer) == ("hilo", "window_size = 8\n", None)
        assert_tables_equal(state, STATE)

    def test_round_trip_with_optimizer(self, tmp_path):
        path = tmp_path / "model.hckpt"
        save_checkpoint(path, "onet", "", STATE, optimizer=OPTIMIZER)
        _, _, state, optimizer = load_checkpoint(path)
        assert_tables_equal(state, STATE)
        for key in ("step", "lr", "beta1", "beta2", "eps"):
            assert optimizer[key] == OPTIMIZER[key]
        assert_tables_equal(optimizer["m"], OPTIMIZER["m"])
        assert_tables_equal(optimizer["v"], OPTIMIZER["v"])

    def test_every_truncation_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.hckpt"
        save_checkpoint(path, "hilo", "a = 1\n", STATE, optimizer=OPTIMIZER)
        blob = path.read_bytes()
        cut = tmp_path / "cut.hckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(FormatError):
                load_checkpoint(cut)

    @pytest.mark.parametrize("table", ["state", "optimizer"])
    def test_non_finite_entry_is_a_format_error(self, tmp_path, table):
        """A NaN or an infinity in any entry is refused on reading, naming
        the first such entry, so a diverged model is never loaded."""
        state = {k: v.copy() for k, v in STATE.items()}
        opt = {**OPTIMIZER, "v": {"stem.b": np.array([0.01, np.inf], dtype=np.float32)}}
        if table == "state":
            state["stem.b"][1] = np.nan
            state["scale"][...] = -np.inf
            opt = None
        path = tmp_path / "model.hckpt"
        save_checkpoint(path, "hilo", "a = 1\n", state, opt)
        first = {"state": "stem.b", "optimizer": "v/stem.b"}[table]
        with pytest.raises(FormatError, match=f"entry '{first}' holds non-finite values"):
            load_checkpoint(path)

    def test_trailing_bytes_are_a_format_error(self, tmp_path):
        path = tmp_path / "model.hckpt"
        save_checkpoint(path, "hilo", "", STATE)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            load_checkpoint(path)

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "model.hckpt"
        save_checkpoint(path, "hilo", "", STATE, optimizer=OPTIMIZER)
        save_checkpoint(path, "onet", "", {"x": np.ones(2, dtype=np.float32)})
        kind, _, state, optimizer = load_checkpoint(path)
        assert kind == "onet" and list(state) == ["x"] and optimizer is None
        assert os.listdir(tmp_path) == ["model.hckpt"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_old_file_and_removes_temp(self, tmp_path, monkeypatch, writer):
        """Every writer swaps a finished temporary file in whole: when the
        swap fails, the old file stays as it was and no temporary is left."""
        name, write = WRITERS[writer]
        path = tmp_path / name
        write(path, 0)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(data_io.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write(path, 1)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [name]
