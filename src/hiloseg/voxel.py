"""Dense voxel volumes, pooling, zero-padded window extraction, moving pyramids.

All volumes use one canonical layout: a C-contiguous array indexed
``[x, y, z]``, x slowest, z fastest. Material values live in [0, 1] after
normalization; 0 is air. Out-of-range reads (window extraction, pyramid
levels crossing the border) yield zeros, which is semantically "air".

Windows and pyramids are plain arrays: ``extract_window`` returns a
(w, w, w) array in the source dtype, and ``build_pyramid`` one C-contiguous
(levels, w, w, w) float32 array, level 0 first.

Pyramid levels above 0 come from a summed-area table (the integral image
of Crow 1984 and Viola & Jones 2001, in three dimensions): a float64
cumulative sum over a box of the volume with a leading zero face, so the
sum over any voxel block is eight corner lookups. The box is clipped to
the volume, and corner indices are clipped to the table, which makes every
voxel outside the volume read as air, exactly as window extraction does.
One table serves every pyramid whose levels lie inside its box, so
segmentation builds one per scan; a pyramid's memory is then O(L·w³)
whatever the downsampling factor and level count.

Volumes and labels are treated as immutable after construction; every
operation here is a pure function returning new arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Triple = tuple[int, int, int]


def _check_triple(value, name: str) -> Triple:
    t = tuple(int(v) for v in value)
    if len(t) != 3:
        raise ValueError(f"{name} must have exactly three components, got {value!r}")
    return t  # type: ignore[return-value]


@dataclass(frozen=True)
class VoxelVolume:
    """A dense scalar volume with material values in [0, 1].

    Args:
        data: array of shape (nx, ny, nz); cast to float32 and made contiguous.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 3:
            raise ValueError(f"volume data must be 3-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("volume must contain at least one voxel")
        lo, hi = float(arr.min()), float(arr.max())
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"volume values must lie in [0, 1], found range [{lo}, {hi}]")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> Triple:
        return self.data.shape  # type: ignore[return-value]


@dataclass(frozen=True)
class LabelVolume:
    """A binary volume; 1 marks a target (gun) voxel."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.uint8)
        if arr.ndim != 3:
            raise ValueError(f"label data must be 3-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("label volume must contain at least one voxel")
        if arr.max(initial=0) > 1:
            raise ValueError("label values must be exactly 0 or 1")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> Triple:
        return self.data.shape  # type: ignore[return-value]


def _pooled_array(arr: np.ndarray, factor: int, reducer: str) -> np.ndarray:
    if factor < 1:
        raise ValueError(f"pooling factor must be a positive integer, got {factor}")
    if factor == 1:
        return arr.copy()
    nx, ny, nz = arr.shape
    pad = [(0, (-n) % factor) for n in (nx, ny, nz)]
    if any(p[1] for p in pad):
        arr = np.pad(arr, pad)  # zero padding dilutes means, per the border rule
    ox, oy, oz = (s // factor for s in arr.shape)
    blocks = arr.reshape(ox, factor, oy, factor, oz, factor)
    if reducer == "mean":
        # accumulate in float64 so large blocks keep bounded rounding error
        return blocks.mean(axis=(1, 3, 5), dtype=np.float64).astype(np.float32)
    return blocks.max(axis=(1, 3, 5))


def average_pool(vol: VoxelVolume, factor: int) -> VoxelVolume:
    """Downsample a volume by block-averaging ``factor``-sized cubes.

    Dims that do not divide evenly are zero-padded up to the next multiple
    first, so padded voxels contribute zeros to the boundary means.
    """
    return VoxelVolume(_pooled_array(vol.data, factor, "mean"))


def max_pool(labels: LabelVolume, factor: int) -> LabelVolume:
    """Downsample labels; an output voxel is 1 iff any source voxel in its block is 1."""
    return LabelVolume(_pooled_array(labels.data, factor, "max"))


def extract_window(vol: VoxelVolume | LabelVolume, origin, w: int) -> np.ndarray:
    """Read the w-cube starting at ``origin``; voxels outside the volume read as 0.

    Works for volumes and labels alike: returns a (w, w, w) array in the
    source dtype.
    """
    if w < 1:
        raise ValueError(f"window size must be a positive integer, got {w}")
    origin = _check_triple(origin, "origin")
    src = vol.data
    out = np.zeros((w, w, w), dtype=src.dtype)
    src_lo = [max(o, 0) for o in origin]
    src_hi = [min(o + w, n) for o, n in zip(origin, src.shape)]
    if all(lo < hi for lo, hi in zip(src_lo, src_hi)):
        dst = tuple(slice(lo - o, hi - o) for o, lo, hi in zip(origin, src_lo, src_hi))
        out[dst] = src[tuple(slice(lo, hi) for lo, hi in zip(src_lo, src_hi))]
    return out


@dataclass(frozen=True)
class IntegralVolume:
    """Summed-area table of a box inside a volume.

    ``table[i, j, k]`` is the float64 sum of the volume over the half-open
    box ``[origin, origin + (i, j, k))``, so the leading face (any index 0)
    is zero and ``table.shape`` is the box's sides plus one.
    """

    origin: Triple
    table: np.ndarray

    def block_means(self, origin: Triple, factor: int, n: int) -> np.ndarray:
        """Means of the n³ ``factor``-cubes tiling the cube of side n·factor at ``origin``.

        Voxels outside the table's box read as 0, so the box must hold every
        volume voxel of that cube.
        """
        idx = [
            np.clip(np.arange(o - t, o - t + (n + 1) * factor, factor), 0, m - 1)
            for o, t, m in zip(origin, self.origin, self.table.shape)
        ]
        sums = self.table[np.ix_(*idx)]
        for axis in range(3):
            sums = np.diff(sums, axis=axis)
        return (sums / factor**3).astype(np.float32)


def integral_volume(vol: VoxelVolume, lo, hi) -> IntegralVolume:
    """Summed-area table of ``vol`` over the half-open box [lo, hi), clipped to the volume.

    The sums accumulate in float64. Block sums are exact whenever every voxel
    value is a multiple of 2^-k and the box's total stays below 2^(53-k):
    float32 values that are 0 or in [2^-7, 1], over fewer than 2^22 voxels,
    qualify, and so do scans built from them; other values carry rounding
    of about one float64 ulp of the box's total.
    """
    lo = [min(max(int(a), 0), n) for a, n in zip(lo, vol.dims)]
    hi = [min(max(int(b), a), n) for a, b, n in zip(lo, hi, vol.dims)]
    table = np.zeros(tuple(b - a + 1 for a, b in zip(lo, hi)), dtype=np.float64)
    table[1:, 1:, 1:] = vol.data[tuple(slice(a, b) for a, b in zip(lo, hi))]
    # in place, so no second table; plane by plane along x, where numpy's
    # strided cumsum is several times slower than whole-plane adds
    for i in range(1, len(table)):
        table[i] += table[i - 1]
    np.cumsum(table, axis=1, out=table)
    np.cumsum(table, axis=2, out=table)
    return IntegralVolume(origin=tuple(lo), table=table)


def build_pyramid(vol: VoxelVolume, center, w: int, d: int, levels: int,
                  integral: IntegralVolume | None = None) -> np.ndarray:
    """Build the moving pyramid around ``center`` as a C-contiguous
    (levels, w, w, w) float32 array.

    Level 0 is the raw window of side w at ``center - w//2``. Level l covers
    the cube of side ``w * d**l`` at ``center - side//2`` and holds the means
    of its ``d**l``-cubes, voxels outside the volume counting as 0. Those
    means come from ``integral``, a summed-area table of ``vol`` whose box
    must hold the top level's cube clipped to the volume (segmentation shares
    one over all its tiles); without it the table is built over that clipped
    cube alone. Sums accumulate in float64 and each mean is cast to float32
    once, as block-averaging the extracted cube did.
    """
    if levels < 1:
        raise ValueError(f"level count must be >= 1, got {levels}")
    if d < 2:
        raise ValueError(f"downsampling factor must be >= 2, got {d}")
    if w < 1:
        raise ValueError(f"window size must be a positive integer, got {w}")
    center = _check_triple(center, "center")
    top = w * d ** (levels - 1)
    top_lo = [c - top // 2 for c in center]
    need = [(max(a, 0), min(a + top, n)) for a, n in zip(top_lo, vol.dims)]
    if levels > 1 and integral is None:
        integral = integral_volume(vol, *zip(*need))
    elif levels > 1 and all(a < b for a, b in need):
        box = zip(integral.origin, integral.table.shape)
        if any(a < t or b > t + m - 1 for (a, b), (t, m) in zip(need, box)):
            raise ValueError(f"integral volume does not cover the pyramid at {center}")
    out = np.empty((levels, w, w, w), dtype=np.float32)
    out[0] = extract_window(vol, tuple(c - w // 2 for c in center), w)
    for lvl in range(1, levels):
        side = w * d**lvl
        out[lvl] = integral.block_means(tuple(c - side // 2 for c in center), d**lvl, w)
    return out
