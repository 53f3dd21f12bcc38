"""Full-volume segmentation, multiresolution occupancy evaluation, metrics.

A trained window model only ever sees w-sided level-0 windows, so a whole
volume is segmented by tiling the target region with non-overlapping windows
and running one forward pass per tile. Tiles never overlap, which makes the
result independent of visiting order and lets tiles run on worker threads
without synchronizing writes. All tiles read their pyramid levels from one
summed-area table of the scan, built once per call and shared read-only.

``mise_evaluate`` implements coarse-to-fine occupancy extraction: evaluate a
coarse corner lattice, fill cells whose corners agree, subdivide the rest,
and stop at single-voxel cells instead of meshing the surface.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .sampling import sample_uniform_coords
from .voxel import LabelVolume, VoxelVolume, build_pyramid, integral_volume


# ---------------------------------------------------------------------------
# bounding boxes


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box with inclusive integer corners."""

    min: tuple[int, int, int] | None
    max: tuple[int, int, int] | None

    def __post_init__(self) -> None:
        if (self.min is None) != (self.max is None):
            raise ValueError("min and max must both be set or both be None")
        if self.min is not None:
            mn = tuple(int(v) for v in self.min)
            mx = tuple(int(v) for v in self.max)
            if any(a > b for a, b in zip(mn, mx)):
                raise ValueError(f"min {mn} exceeds max {mx}")
            object.__setattr__(self, "min", mn)
            object.__setattr__(self, "max", mx)

    @classmethod
    def empty(cls) -> "BoundingBox":
        return cls(None, None)

    @classmethod
    def from_points(cls, coords) -> "BoundingBox":
        coords = np.asarray(coords)
        if coords.size == 0:
            return cls.empty()
        coords = coords.reshape(-1, 3)
        return cls(tuple(coords.min(axis=0).tolist()), tuple(coords.max(axis=0).tolist()))

    @property
    def is_empty(self) -> bool:
        return self.min is None

    @property
    def volume(self) -> int:
        if self.is_empty:
            return 0
        return int(np.prod([b - a + 1 for a, b in zip(self.min, self.max)]))

    def expand(self, margin: int) -> "BoundingBox":
        if self.is_empty:
            return self
        return BoundingBox(
            tuple(a - margin for a in self.min), tuple(b + margin for b in self.max)
        )

    def clamp(self, dims) -> "BoundingBox":
        if self.is_empty:
            return self
        mn = tuple(max(a, 0) for a in self.min)
        mx = tuple(min(b, d - 1) for b, d in zip(self.max, dims))
        if any(a > b for a, b in zip(mn, mx)):
            return BoundingBox.empty()
        return BoundingBox(mn, mx)

    def intersect(self, other: "BoundingBox") -> "BoundingBox":
        if self.is_empty or other.is_empty:
            return BoundingBox.empty()
        mn = tuple(max(a, c) for a, c in zip(self.min, other.min))
        mx = tuple(min(b, d) for b, d in zip(self.max, other.max))
        if any(a > b for a, b in zip(mn, mx)):
            return BoundingBox.empty()
        return BoundingBox(mn, mx)


def full_region(dims) -> BoundingBox:
    return BoundingBox((0, 0, 0), tuple(int(d) - 1 for d in dims))


def bb_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two inclusive boxes.

    Both empty counts as perfect agreement (1.0); one empty gives 0.0.
    """
    if a.is_empty and b.is_empty:
        return 1.0
    if a.is_empty or b.is_empty:
        return 0.0
    inter = a.intersect(b).volume
    union = a.volume + b.volume - inter
    return inter / union


# ---------------------------------------------------------------------------
# tiling and segmentation


@dataclass(frozen=True)
class TilingPlan:
    window_size: int
    origins: tuple[tuple[int, int, int], ...]

    def __len__(self) -> int:
        return len(self.origins)

    def __iter__(self):
        return iter(self.origins)


def plan_tiling(region: BoundingBox, w: int) -> TilingPlan:
    """Grid of w-strided window origins covering the region exactly once.

    Origins start at region.min and step by w; trailing windows overhang the
    region (and possibly the volume, where extraction zero-pads).
    """
    if region.is_empty:
        raise ValueError("cannot tile an empty region")
    if w < 1:
        raise ValueError(f"window size must be >= 1, got {w}")
    axes = [range(a, b + 1, w) for a, b in zip(region.min, region.max)]
    origins = tuple((x, y, z) for x in axes[0] for y in axes[1] for z in axes[2])
    return TilingPlan(w, origins)


def segment_volume(vol: VoxelVolume, model, cfg, region: BoundingBox | None = None,
                   threads: int = 1, plan: TilingPlan | None = None) -> LabelVolume:
    """Segment a volume by running a built window model over a tiling of ``region``.

    ``model`` is a ``HiLoModel`` built for ``cfg``. Voxels outside the
    region are 0 in the output; output dims always equal input dims. Tiles
    run on ``threads`` worker threads (at least 1) in the order of ``plan``
    (by default ``plan_tiling`` of the region); neither changes the result.
    One summed-area table covers the top pyramid level of every tile,
    clipped to the scan; it is host memory outside the byte meter.
    """
    from .models.hilo import hilo_forward

    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if region is None:
        region = full_region(vol.dims)
    region = region.clamp(vol.dims)
    if region.is_empty:
        return LabelVolume(np.zeros(vol.dims, dtype=np.uint8))
    if plan is None:
        plan = plan_tiling(region, cfg.window_size)
    out = np.zeros(vol.dims, dtype=np.uint8)
    w = plan.window_size
    d, L = cfg.downsampling_factor, cfg.levels
    integral = None
    if L > 1 and len(plan):
        top = w * d ** (L - 1)
        top_lo = np.asarray(plan.origins) + (w // 2 - top // 2)
        integral = integral_volume(vol, top_lo.min(axis=0), top_lo.max(axis=0) + top)
    if cfg.decoder == "onet":
        # the coordinate decoder answers point queries; ask for the whole window
        r = np.arange(w, dtype=np.int64)
        grid_coords = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    else:
        grid_coords = None

    def run_tile(origin):
        center = tuple(o + w // 2 for o in origin)
        pyr = build_pyramid(vol, center, w, d, L, integral=integral)
        if grid_coords is None:
            probs = hilo_forward(pyr, cfg, model)
        else:
            probs = hilo_forward(pyr, cfg, model, grid_coords).reshape(w, w, w)
        pred = (probs > cfg.threshold).astype(np.uint8)
        # clip the tile to the region, already clamped to the volume, before writing
        lo = [max(o, r) for o, r in zip(origin, region.min)]
        hi = [min(o + w - 1, r) for o, r in zip(origin, region.max)]
        if any(a > b for a, b in zip(lo, hi)):
            return
        src = tuple(slice(a - o, b - o + 1) for a, b, o in zip(lo, hi, origin))
        dst = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
        out[dst] = pred[src]

    if threads == 1 or len(plan) <= 1:
        for origin in plan:
            run_tile(origin)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_tile, plan.origins))
    return LabelVolume(out)


# ---------------------------------------------------------------------------
# multiresolution occupancy evaluation

_CORNER_OFFSETS = np.array(
    [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=np.int64
)


def mise_evaluate(decode, dims, initial_factor: int, threshold: float = 0.5) -> LabelVolume:
    """Coarse-to-fine occupancy evaluation over an integer voxel grid.

    ``decode`` maps an (n, 3) int64 coordinate array to (n,) occupancy
    probabilities. Corners of cells at the current spacing are evaluated
    (each lattice point once); a cell whose 8 corner decisions agree fills
    its half-open voxel block [origin, origin + spacing) with that decision,
    a disagreeing cell is split in 8. At spacing 1 a cell is one voxel and
    takes its own origin-corner decision. Corners on the padded boundary
    are clamped into the volume before evaluation.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"bad dims {dims}")
    f = int(initial_factor)
    if f < 1 or (f & (f - 1)) != 0:
        raise ValueError(f"initial_factor must be a power of 2, got {initial_factor}")
    padded = tuple(-(-d // f) * f for d in dims)
    memo = np.full(tuple(p + 1 for p in padded), -1, dtype=np.int8)
    out = np.zeros(padded, dtype=np.uint8)  # cropped to dims at the end
    clamp_hi = np.asarray(dims, dtype=np.int64) - 1

    grids = np.meshgrid(*[np.arange(0, p, f, dtype=np.int64) for p in padded], indexing="ij")
    active = np.stack(grids, axis=-1).reshape(-1, 3)
    s = f
    while active.size:
        corners = active[:, None, :] + s * _CORNER_OFFSETS[None, :, :]
        flat = corners.reshape(-1, 3)
        lin = np.ravel_multi_index(flat.T, memo.shape)
        unknown = lin[memo.flat[lin] < 0]
        if unknown.size:
            # each lattice point once, in row-major (lexicographic) order
            pending = np.zeros(memo.size, dtype=bool)
            pending[unknown] = True
            need_lin = np.flatnonzero(pending)
            need = np.stack(np.unravel_index(need_lin, memo.shape), axis=1)
            probs = np.asarray(decode(np.minimum(need, clamp_hi)))
            memo.flat[need_lin] = (probs > threshold).astype(np.int8)
        dec = memo[corners[..., 0], corners[..., 1], corners[..., 2]]
        uniform = (dec == dec[:, :1]).all(axis=1)
        if s == 1:
            # single-voxel cells take their own corner's decision either way
            out[active[:, 0], active[:, 1], active[:, 2]] = dec[:, 0]
            break
        # cells at spacing s are aligned s-blocks of the padded grid
        blocks = out.reshape(padded[0] // s, s, padded[1] // s, s, padded[2] // s, s)
        filled = active[uniform & (dec[:, 0] == 1)] // s
        blocks[filled[:, 0], :, filled[:, 1], :, filled[:, 2], :] = 1
        half = s // 2
        active = (active[~uniform][:, None, :] + half * _CORNER_OFFSETS[None, :, :]).reshape(-1, 3)
        s = half
    return LabelVolume(out[: dims[0], : dims[1], : dims[2]])


# ---------------------------------------------------------------------------
# metrics


def mask_iou(pred: np.ndarray, truth: np.ndarray) -> float:
    """|pred AND truth| / |pred OR truth| of two boolean masks; two empty
    masks agree perfectly."""
    union = np.count_nonzero(pred | truth)
    if union == 0:
        return 1.0
    return np.count_nonzero(pred & truth) / union


def voxel_iou(pred: LabelVolume, truth: LabelVolume) -> float:
    """Mask IoU of the nonzero voxels of two volumes."""
    if pred.dims != truth.dims:
        raise ValueError(f"dims mismatch: {pred.dims} vs {truth.dims}")
    return mask_iou(pred.data != 0, truth.data != 0)


def sampled_iou(decode, truth: LabelVolume, n: int = 2**18, seed: int = 0) -> float:
    """IoU estimated on n uniformly drawn coordinates instead of every voxel."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    coords = sample_uniform_coords(truth.dims, n, seed)
    p = np.asarray(decode(coords)) > 0.5
    return mask_iou(p, truth.data[coords[:, 0], coords[:, 1], coords[:, 2]] != 0)
