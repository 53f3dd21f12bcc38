"""Volume file format, manifests, splits, synthetic generator, slice images."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hiloseg import data_io
from hiloseg.data_io import (
    DEFAULT_SPLIT_RATIOS,
    HEADER,
    MAGIC,
    DatasetManifest,
    ManifestRecord,
    SynthConfig,
    generate_synthetic_one,
    load_manifest,
    load_volume,
    save_volume,
    split_dataset,
    write_dataset,
    write_pgm,
)
from hiloseg.errors import FormatError
from hiloseg.voxel import LabelVolume, VoxelVolume

SMALL = SynthConfig(dims=(32, 24, 28), seed=3)


class TestVolumeFormat:
    def test_volume_round_trip(self, tmp_path, rng):
        vol = VoxelVolume(rng.random((5, 7, 3)).astype(np.float32))
        p = tmp_path / "v.hv1"
        save_volume(p, vol)
        back = load_volume(p)
        assert isinstance(back, VoxelVolume)
        np.testing.assert_array_equal(back.data, vol.data)

    def test_label_round_trip(self, tmp_path, rng):
        lab = LabelVolume((rng.random((4, 4, 6)) > 0.8).astype(np.uint8))
        p = tmp_path / "l.hv1"
        save_volume(p, lab)
        back = load_volume(p)
        assert isinstance(back, LabelVolume)
        np.testing.assert_array_equal(back.data, lab.data)

    def test_write_is_byte_stable(self, tmp_path, rng):
        vol = VoxelVolume(rng.random((3, 3, 3)).astype(np.float32))
        save_volume(tmp_path / "a", vol)
        save_volume(tmp_path / "b", vol)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_header_layout(self, tmp_path):
        vol = VoxelVolume(np.zeros((2, 3, 4), dtype=np.float32))
        p = tmp_path / "v.hv1"
        save_volume(p, vol)
        blob = p.read_bytes()
        assert blob[:8] == MAGIC
        assert len(blob) == HEADER.size + 2 * 3 * 4 * 4

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.hv1"
        p.write_bytes(b"NOTAVOL1" + bytes(100))
        with pytest.raises(FormatError, match="magic"):
            load_volume(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "x.hv1"
        p.write_bytes(b"HILO")
        with pytest.raises(FormatError, match="truncated"):
            load_volume(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "x.hv1"
        save_volume(p, VoxelVolume(np.zeros((4, 4, 4), dtype=np.float32)))
        blob = p.read_bytes()
        p.write_bytes(blob[:-10])
        with pytest.raises(FormatError, match="truncated payload"):
            load_volume(p)

    def test_trailing_garbage(self, tmp_path):
        p = tmp_path / "x.hv1"
        save_volume(p, VoxelVolume(np.zeros((2, 2, 2), dtype=np.float32)))
        p.write_bytes(p.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            load_volume(p)

    def test_file_shorter_than_its_stat_size(self, tmp_path, monkeypatch):
        """A payload that ends before the size the file reported is a
        FormatError, not a partly filled array."""
        p = tmp_path / "x.hv1"
        save_volume(p, VoxelVolume(np.zeros((4, 4, 4), dtype=np.float32)))
        size = p.stat().st_size
        p.write_bytes(p.read_bytes()[:-10])
        monkeypatch.setattr(data_io.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
        with pytest.raises(FormatError, match="truncated payload, 10 bytes missing"):
            load_volume(p)

    def test_load_holds_the_payload_once(self, tmp_path):
        """Loading allocates the volume's array and little else: no copy of
        the file's bytes next to it."""
        vol = VoxelVolume(np.zeros((64, 64, 64), dtype=np.float32))
        p = tmp_path / "v.hv1"
        save_volume(p, vol)
        tracemalloc.start()
        try:
            back = load_volume(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.data.nbytes <= peak < 1.1 * back.data.nbytes

    def test_save_rejects_plain_arrays(self, tmp_path):
        with pytest.raises(TypeError):
            save_volume(tmp_path / "x", np.zeros((2, 2, 2)))


class TestSplits:
    def records(self, n):
        return [ManifestRecord(f"v{i}", f"l{i}", "train") for i in range(n)]

    def test_disjoint_and_exhaustive(self):
        manifest = split_dataset(self.records(100), seed=1)
        paths = [r.path for r in manifest.records]
        assert sorted(paths) == sorted(f"v{i}" for i in range(100))
        counts = manifest.counts
        assert sum(counts.values()) == 100
        assert all(counts[s] > 0 for s in ("train", "val", "test"))

    def test_default_ratio_counts(self):
        manifest = split_dataset(self.records(2924))
        assert manifest.counts == {"train": 2600, "val": 128, "test": 196}

    def test_deterministic_per_seed(self):
        a = split_dataset(self.records(50), seed=9)
        b = split_dataset(self.records(50), seed=9)
        c = split_dataset(self.records(50), seed=10)
        assert a.records == b.records
        assert a.records != c.records

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(self.records(10), ratios=(0.5, 0.2, 0.2))


class TestManifest:
    def test_tsv_round_trip(self, tmp_path):
        m = DatasetManifest(
            [ManifestRecord("a.hv1", "al.hv1", "train"), ManifestRecord("b.hv1", "bl.hv1", "test")]
        )
        p = tmp_path / "manifest.tsv"
        m.save(p)
        assert DatasetManifest.load(p).records == m.records

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("a\tb\ttrain\nbroken line\n")
        with pytest.raises(FormatError, match=r":2"):
            DatasetManifest.load(p)

    def test_unknown_split_rejected(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("a\tb\tholdout\n")
        with pytest.raises(FormatError, match="holdout"):
            DatasetManifest.load(p)

    def test_load_manifest_resolves_relative_paths(self, tmp_path):
        sub = tmp_path / "data"
        sub.mkdir()
        (sub / "manifest.tsv").write_text("vol.hv1\tlab.hv1\ttrain\n")
        m = load_manifest(sub / "manifest.tsv")
        assert m.records[0].path == str(sub / "vol.hv1")
        assert m.records[0].label_path == str(sub / "lab.hv1")

    def test_dataset_is_relocatable(self, tmp_path):
        """Manifests store bare names, so moving the directory keeps working."""
        first = tmp_path / "first"
        write_dataset(first, SynthConfig(dims=(16, 16, 16), clutter_count_range=(2, 4)), 3)
        moved = tmp_path / "second"
        first.rename(moved)
        m = load_manifest(moved / "manifest.tsv")
        rec = m.records[0]
        assert load_volume(rec.path).dims == (16, 16, 16)
        assert isinstance(load_volume(rec.label_path), LabelVolume)


class TestSyntheticGenerator:
    def test_deterministic_per_index(self):
        v1, l1 = generate_synthetic_one(SMALL, 5)
        v2, l2 = generate_synthetic_one(SMALL, 5)
        np.testing.assert_array_equal(v1.data, v2.data)
        np.testing.assert_array_equal(l1.data, l2.data)

    def test_indices_are_independent_streams(self):
        """Instance i is the same whether generated alone or in a batch."""
        alone = generate_synthetic_one(SMALL, 2)
        batch = [generate_synthetic_one(SMALL, i) for i in range(4)]
        np.testing.assert_array_equal(alone[0].data, batch[2][0].data)
        v0, v1 = batch[0][0].data, batch[1][0].data
        assert not np.array_equal(v0, v1)

    def test_values_in_unit_range(self):
        vol, _ = generate_synthetic_one(SMALL, 0)
        assert vol.data.min() >= 0.0 and vol.data.max() <= 1.0

    def test_exactly_one_gun_labeled(self):
        """Labels mark the gun and only the gun: every labeled voxel carries
        gun-range material, and the labeled region is a single connected blob
        of plausible size."""
        cfg = SynthConfig(dims=(64, 48, 56), seed=1)
        for index in range(3):
            vol, labels = generate_synthetic_one(cfg, index)
            mask = labels.data != 0
            assert mask.any()
            vals = vol.data[mask]
            # noise can push a few voxels slightly outside the configured band
            lo, hi = cfg.gun_material_range
            assert np.percentile(vals, 5) > lo - 0.1
            frac = mask.mean()
            assert 0.002 < frac < 0.2

    def test_gun_occupies_its_bounding_box_sides(self):
        vol, labels = generate_synthetic_one(SynthConfig(dims=(160, 104, 154), seed=0), 0)
        idx = np.argwhere(labels.data != 0)
        sides = idx.max(axis=0) - idx.min(axis=0) + 1
        # barrel plus grip plus muzzle: long in x, shallow in y, mid in z
        assert sides[0] > sides[1]
        assert 20 < sides[0] < 120 and 8 < sides[1] < 60 and 15 < sides[2] < 90

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(dims=(4, 64, 64))


class TestWriteDataset:
    def test_writes_files_and_manifest(self, tmp_path):
        cfg = SynthConfig(dims=(16, 16, 16), clutter_count_range=(2, 4), seed=0)
        manifest = write_dataset(tmp_path / "ds", cfg, 5)
        assert len(manifest.records) == 5
        assert (tmp_path / "ds" / "manifest.tsv").exists()
        loaded = load_manifest(tmp_path / "ds" / "manifest.tsv")
        for rec in loaded.records:
            vol = load_volume(rec.path)
            lab = load_volume(rec.label_path)
            assert vol.dims == lab.dims == (16, 16, 16)

    def test_regenerated_bytes_identical(self, tmp_path):
        cfg = SynthConfig(dims=(16, 16, 16), clutter_count_range=(2, 4), seed=7)
        write_dataset(tmp_path / "a", cfg, 3)
        write_dataset(tmp_path / "b", cfg, 3)
        for name in ("vol_00000.hv1", "lab_00002.hv1", "manifest.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestPgm:
    def test_bytes_layout(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        p = tmp_path / "s.pgm"
        write_pgm(p, img)
        blob = p.read_bytes()
        assert blob == b"P5\n4 3\n11\n" + img.tobytes()

    def test_binary_mask_keeps_raw_bytes(self, tmp_path):
        """A 0/1 mask writes maxval 1 so ones render white without scaling
        the stored bytes."""
        mask = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        p = tmp_path / "m.pgm"
        write_pgm(p, mask)
        blob = p.read_bytes()
        assert blob.startswith(b"P5\n2 2\n1\n")
        assert blob[-4:] == bytes([0, 1, 1, 0])

    def test_all_zero_image_has_maxval_one(self, tmp_path):
        p = tmp_path / "z.pgm"
        write_pgm(p, np.zeros((2, 2), dtype=np.uint8))
        assert p.read_bytes().startswith(b"P5\n2 2\n1\n")

    def test_value_range_check(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.array([[300.0]]))
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2), dtype=np.uint8))
