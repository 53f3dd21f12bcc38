"""Volume file format, dataset manifests, synthetic data.

File format ("HILOVOL1"): 8-byte magic, u16 version, u8 dtype code
(0 = float32 material volume, 1 = uint8 label volume), three u32 dims
(x, y, z), all little-endian, then the raw payload in row-major (x slowest)
order. The header is exactly 23 bytes.

Every file the package writes goes through ``write_atomic``, so a reader
never sees a partial file.

The synthetic generator stands in for a private CT dataset: cluttered bags
of benign convex objects plus exactly one gun-shaped composite per instance,
with the label volume marking exactly the gun voxels. Benign and gun
material ranges are disjoint by default, mirroring how metal density
separates from organics in real scans; air is material 0, so the border
zero-padding used everywhere reads as air.
"""

from __future__ import annotations

import os
import struct
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError
from .rng import make_rng
from .voxel import LabelVolume, VoxelVolume

MAGIC = b"HILOVOL1"
VERSION = 1
_DTYPE_VOLUME = 0
_DTYPE_LABEL = 1
HEADER = struct.Struct("<8sHBIII")  # 23 bytes

SPLITS = ("train", "val", "test")

# 2600/128/196 of 2924
DEFAULT_SPLIT_RATIOS = (2600 / 2924, 128 / 2924, 196 / 2924)


# ---------------------------------------------------------------------------
# file format


def write_atomic(path, *chunks) -> None:
    """Write the bytes-like ``chunks``, in order, to a temporary file next to
    ``path`` and swap it in whole with ``os.replace``. On any error the
    temporary file is removed and ``path`` keeps what it held."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_volume(path, vol: VoxelVolume | LabelVolume) -> None:
    if isinstance(vol, VoxelVolume):
        code, payload = _DTYPE_VOLUME, vol.data.astype("<f4", copy=False)
    elif isinstance(vol, LabelVolume):
        code, payload = _DTYPE_LABEL, vol.data
    else:
        raise TypeError(f"expected VoxelVolume or LabelVolume, got {type(vol).__name__}")
    nx, ny, nz = vol.dims
    write_atomic(path, HEADER.pack(MAGIC, VERSION, code, nx, ny, nz),
                 np.ascontiguousarray(payload))


def _check_header(path, head: bytes, size: int) -> tuple[int, tuple[int, int, int]]:
    """Validate the header at the start of ``head`` against the file's byte
    ``size``; returns (dtype code, dims)."""
    if size < HEADER.size:
        raise FormatError(f"{path}: truncated header, {HEADER.size - size} bytes missing")
    magic, version, code, nx, ny, nz = HEADER.unpack_from(head)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if code not in (_DTYPE_VOLUME, _DTYPE_LABEL):
        raise FormatError(f"{path}: unknown dtype code {code}")
    itemsize = 4 if code == _DTYPE_VOLUME else 1
    missing = HEADER.size + nx * ny * nz * itemsize - size
    if missing > 0:
        raise FormatError(f"{path}: truncated payload, {missing} bytes missing")
    if missing < 0:
        raise FormatError(f"{path}: {-missing} trailing bytes beyond declared payload")
    return code, (nx, ny, nz)


def volume_dims(path) -> tuple[int, int, int]:
    """The (x, y, z) extent of a volume file, reading its header only."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER.size)
        size = os.fstat(fh.fileno()).st_size
    return _check_header(path, head, size)[1]


def load_volume(path) -> VoxelVolume | LabelVolume:
    """Read a volume file, copying its payload once: straight into the array."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER.size)
        code, dims = _check_header(path, head, os.fstat(fh.fileno()).st_size)
        data = np.empty(dims, "<f4" if code == _DTYPE_VOLUME else np.uint8)
        got = fh.readinto(memoryview(data).cast("B"))
    if got != data.nbytes:
        raise FormatError(f"{path}: truncated payload, {data.nbytes - got} bytes missing")
    return VoxelVolume(data) if code == _DTYPE_VOLUME else LabelVolume(data)


def load_record(record) -> tuple[VoxelVolume, LabelVolume]:
    """The (scan, labels) pair of a record with ``path`` and ``label_path``;
    a ``FormatError`` names both files when they do not make one."""
    vol, labels = load_volume(record.path), load_volume(record.label_path)
    both = f"{record.path} with labels {record.label_path}"
    if not isinstance(vol, VoxelVolume):
        raise FormatError(f"{both}: the volume file holds labels, not a scan")
    if not isinstance(labels, LabelVolume):
        raise FormatError(f"{both}: the label file holds a scan, not labels")
    if vol.dims != labels.dims:
        raise FormatError(f"{both}: dims differ, {vol.dims} vs {labels.dims}")
    return vol, labels


# ---------------------------------------------------------------------------
# manifests and splits


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    label_path: str
    split: str


@dataclass
class DatasetManifest:
    records: list[ManifestRecord] = field(default_factory=list)

    def paths(self, split: str | None = None) -> list[ManifestRecord]:
        if split is None:
            return list(self.records)
        return [r for r in self.records if r.split == split]

    @property
    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in SPLITS}
        for r in self.records:
            out[r.split] = out.get(r.split, 0) + 1
        return out

    def save(self, path) -> None:
        lines = [f"{r.path}\t{r.label_path}\t{r.split}" for r in self.records]
        write_atomic(path, ("\n".join(lines) + ("\n" if lines else "")).encode())

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        records = []
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            if parts[2] not in SPLITS:
                raise FormatError(f"{path}:{lineno}: unknown split {parts[2]!r}")
            records.append(ManifestRecord(*parts))
        return cls(records)


def split_dataset(records, ratios=DEFAULT_SPLIT_RATIOS, seed=0) -> DatasetManifest:
    """Deterministically shuffle records and assign train/val/test splits."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {sum(ratios)}")
    if isinstance(records, DatasetManifest):
        records = records.records
    rng = make_rng(seed, 7)
    order = rng.permutation(len(records))
    n = len(records)
    bounds = [int(round(sum(ratios[: i + 1]) * n)) for i in range(len(ratios))]
    bounds[-1] = n  # guard against rounding drift
    out = []
    for pos, idx in enumerate(order):
        split = SPLITS[next(i for i, b in enumerate(bounds) if pos < b)]
        r = records[idx]
        out.append(ManifestRecord(r.path, r.label_path, split))
    return DatasetManifest(out)


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic baggage-scan generator parameters.

    Default dims are a 1/4-per-axis scale of a full scanner volume. Sizes of
    generated objects scale with the volume, so the gun's voxel fraction
    stays inside the same band at any resolution.
    """

    dims: tuple[int, int, int] = (160, 104, 154)
    clutter_count_range: tuple[int, int] = (5, 20)
    gun_material_range: tuple[float, float] = (0.72, 0.95)
    benign_material_range: tuple[float, float] = (0.08, 0.60)
    noise: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if any(d < 8 for d in self.dims):
            raise ValueError(f"dims too small for the generator: {self.dims}")
        lo, hi = self.clutter_count_range
        if not (0 <= lo <= hi):
            raise ValueError(f"bad clutter count range {self.clutter_count_range}")
        for name in ("gun_material_range", "benign_material_range"):
            a, b = getattr(self, name)
            if not (0.0 < a <= b <= 1.0):
                raise ValueError(f"{name} must lie inside (0, 1], got {(a, b)}")


def _paint_ellipsoid(vol, center, radii, value, rng, noise):
    lo = [max(0, int(np.floor(c - r))) for c, r in zip(center, radii)]
    hi = [min(n, int(np.ceil(c + r)) + 1) for c, r, n in zip(center, radii, vol.shape)]
    if any(a >= b for a, b in zip(lo, hi)):
        return None
    grids = np.ogrid[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
    dist = sum(((g - c) / max(r, 1e-6)) ** 2 for g, c, r in zip(grids, center, radii))
    mask = dist <= 1.0
    region = vol[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
    region[mask] = value + rng.uniform(-noise, noise, size=int(mask.sum()))
    return (tuple(lo), tuple(hi), mask)


def _paint_box(vol, corner, size, value, rng, noise):
    lo = [max(0, int(c)) for c in corner]
    hi = [min(n, int(c + s)) for c, s, n in zip(corner, size, vol.shape)]
    if any(a >= b for a, b in zip(lo, hi)):
        return None
    shape = tuple(b - a for a, b in zip(lo, hi))
    region = vol[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
    region[...] = value + rng.uniform(-noise, noise, size=shape)
    return (tuple(lo), tuple(hi), np.ones(shape, dtype=bool))


def _paint_cylinder(vol, center, radius, half_len, axis, value, rng, noise):
    radii = [radius] * 3
    radii[axis] = half_len
    lo = [max(0, int(np.floor(c - r))) for c, r in zip(center, radii)]
    hi = [min(n, int(np.ceil(c + r)) + 1) for c, r, n in zip(center, radii, vol.shape)]
    if any(a >= b for a, b in zip(lo, hi)):
        return None
    grids = np.ogrid[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
    cross = [i for i in range(3) if i != axis]
    dist = sum(((grids[i] - center[i]) / max(radius, 1e-6)) ** 2 for i in cross)
    along = np.abs(grids[axis] - center[axis]) <= half_len
    mask = (dist <= 1.0) & along
    region = vol[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
    region[mask] = value + rng.uniform(-noise, noise, size=int(mask.sum()))
    return (tuple(lo), tuple(hi), mask)


def _paint_gun(vol, labels, cfg: SynthConfig, rng) -> None:
    """One L-shaped composite: barrel box + grip box + cylinder, connected.

    Proportions are relative to the volume so the positive fraction lands in
    the same band at every scale; the composite is painted last so labels
    mark exactly the gun voxels (benign objects never overwrite it).
    """
    nx, ny, nz = vol.shape
    scale = rng.uniform(0.85, 1.15)
    # barrel along x, grip along z, overlapping at the rear of the barrel
    barrel = np.array([0.40 * nx, 0.22 * ny, 0.13 * nz]) * scale
    grip = np.array([0.13 * nx, 0.20 * ny, 0.26 * nz]) * scale
    total_x = barrel[0]
    total_z = barrel[2] + grip[2] * 0.8
    ox = rng.uniform(0, max(nx - total_x - 2, 1))
    oy = rng.uniform(0, max(ny - max(barrel[1], grip[1]) - 2, 1))
    oz = rng.uniform(grip[2] * 0.8 + 1, max(nz - total_z - 2, grip[2] * 0.8 + 2))
    value = rng.uniform(*cfg.gun_material_range)
    painted = []
    painted.append(_paint_box(vol, (ox, oy, oz), barrel, value, rng, cfg.noise))
    # grip hangs below the rear quarter of the barrel, overlapping one slab
    gx = ox + 0.02 * nx * scale
    gz = oz - grip[2] + 2.0
    painted.append(_paint_box(vol, (gx, oy + 0.01 * ny, gz), grip, value, rng, cfg.noise))
    # a short cylinder as the muzzle, overlapping the barrel's front end
    cx = ox + barrel[0] - 1.0
    cy = oy + barrel[1] / 2
    cz = oz + barrel[2] / 2
    painted.append(
        _paint_cylinder(
            vol, (cx + 0.045 * nx * scale, cy, cz), max(0.045 * ny * scale, 1.5),
            max(0.05 * nx * scale, 1.5), 0, value, rng, cfg.noise,
        )
    )
    for item in painted:
        if item is None:
            continue
        lo, hi, mask = item
        labels[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]][mask] = 1


def generate_synthetic_one(cfg: SynthConfig, index: int) -> tuple[VoxelVolume, LabelVolume]:
    """Generate the ``index``-th instance of the stream without materializing others.

    Each instance gets its own stream keyed on the index, so instance i is
    identical whether generated alone or as part of a batch.
    """
    rng = make_rng(cfg.seed, 11, index)
    vol = np.zeros(cfg.dims, dtype=np.float32)
    labels = np.zeros(cfg.dims, dtype=np.uint8)
    n_clutter = int(rng.integers(cfg.clutter_count_range[0], cfg.clutter_count_range[1] + 1))
    for _ in range(n_clutter):
        value = rng.uniform(*cfg.benign_material_range)
        kind = rng.integers(0, 3)
        center = [rng.uniform(0, n) for n in cfg.dims]
        span = [rng.uniform(0.04, 0.16) * n for n in cfg.dims]
        if kind == 0:
            _paint_box(vol, [c - s / 2 for c, s in zip(center, span)], span, value, rng, cfg.noise)
        elif kind == 1:
            _paint_ellipsoid(vol, center, [s / 2 for s in span], value, rng, cfg.noise)
        else:
            axis = int(rng.integers(0, 3))
            _paint_cylinder(
                vol, center, max(span[(axis + 1) % 3] / 2, 1.0),
                max(span[axis] / 2, 1.0), axis, value, rng, cfg.noise,
            )
    _paint_gun(vol, labels, cfg, rng)
    np.clip(vol, 0.0, 1.0, out=vol)
    return VoxelVolume(vol), LabelVolume(labels)


def write_dataset(out_dir, cfg: SynthConfig, count: int,
                  ratios=DEFAULT_SPLIT_RATIOS) -> DatasetManifest:
    """Generate, save, and split (by ``cfg.seed``) a synthetic dataset;
    returns the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for i in range(count):
        vol, labels = generate_synthetic_one(cfg, i)
        vname, lname = f"vol_{i:05d}.hv1", f"lab_{i:05d}.hv1"
        save_volume(out_dir / vname, vol)
        save_volume(out_dir / lname, labels)
        # names only, so the manifest is relocatable and independent of out_dir
        records.append(ManifestRecord(vname, lname, "train"))
    manifest = split_dataset(records, ratios, cfg.seed)
    manifest.save(out_dir / "manifest.tsv")
    return manifest


def load_manifest(path) -> DatasetManifest:
    """Load a manifest, resolving relative record paths against its directory."""
    path = Path(path)
    manifest = DatasetManifest.load(path)
    base = path.parent
    resolved = []
    for r in manifest.records:
        vp, lp = Path(r.path), Path(r.label_path)
        resolved.append(
            ManifestRecord(
                str(vp if vp.is_absolute() else base / vp),
                str(lp if lp.is_absolute() else base / lp),
                r.split,
            )
        )
    return DatasetManifest(resolved)


# ---------------------------------------------------------------------------
# slice images


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2D uint8 array as a binary (P5) portable graymap.

    The maxval is the image maximum (at least 1), so a 0/1 mask renders with
    its ones at full white while the pixel bytes stay equal to the array.
    """
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError("image values must fit in a byte")
        arr = arr.astype(np.uint8)
    h, wd = arr.shape
    maxval = max(1, int(arr.max()))
    write_atomic(path, f"P5\n{wd} {h}\n{maxval}\n".encode("ascii"), arr.tobytes())
