"""Checkpoint files: round trip, atomic replacement, and corrupt files."""

import os

import numpy as np
import pytest

from hiloseg.errors import FormatError
from hiloseg.nn import checkpoint
from hiloseg.nn.checkpoint import load_checkpoint, save_checkpoint

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

    def test_failed_write_keeps_old_file_and_removes_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "model.hckpt"
        save_checkpoint(path, "hilo", "", STATE)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, "onet", "", {"x": np.ones(2, dtype=np.float32)})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.hckpt"]
