"""Stochastic selection: coordinate sampling and pyramid location sampling.

Every sampler is a pure function of its inputs and a seed or a generator
the caller passes, so runs are reproducible across thread schedules.
Coordinates are (n, 3) int64 arrays of voxel indices; labels drawn with
them are parallel (n,) uint8 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabelsError
from .rng import make_rng
from .voxel import LabelVolume

# Stream key so other consumers of the same seed never collide.
_STREAM_UNIFORM = 102


@dataclass(frozen=True)
class SamplerConfig:
    """Coordinate/location sampling parameters.

    ``shape_fraction`` is the share of coordinates drawn uniformly from the
    positive (gun) voxels; the rest are uniform over the whole grid.
    ``redraw_prob`` is the probability that a pyramid location whose window
    misses the gun is redrawn. ``redraw_scope`` selects which part of the
    pyramid must contain a gun voxel to stop the redraw: the level-0 window
    ("level0", default) or the full footprint of the top level ("any").
    """

    n_train_coords: int = 2**14
    n_test_coords: int = 2**18
    n_hilo_coords: int = 2**11
    shape_fraction: float = 0.6
    redraw_prob: float = 0.9
    redraw_scope: str = "level0"

    def __post_init__(self) -> None:
        for name in ("n_train_coords", "n_test_coords", "n_hilo_coords"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("shape_fraction", "redraw_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.redraw_scope not in ("level0", "any"):
            raise ValueError(f"redraw_scope must be 'level0' or 'any', got {self.redraw_scope!r}")


def _flat_to_coords(flat: np.ndarray, dims) -> np.ndarray:
    return np.stack(np.unravel_index(flat, dims), axis=1).astype(np.int64)


def sample_uniform_coords(dims, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. uniform coordinates over the grid, as an (n, 3) int64 array."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = make_rng(seed, _STREAM_UNIFORM)
    dims = tuple(int(v) for v in dims)
    flat = rng.integers(0, int(np.prod(dims)), size=n)
    return _flat_to_coords(flat, dims)


def sample_biased_coords(
    labels: LabelVolume,
    cfg: SamplerConfig,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw coordinates biased toward the positive voxels.

    round(n * shape_fraction) coordinates come uniformly (with replacement)
    from the positive voxels, the remainder uniformly from the whole grid;
    the result is shuffled and labeled by direct lookup. Returns the (n, 3)
    int64 coordinates and their (n,) uint8 labels.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    data = labels.data
    n_pos = int(round(n * cfg.shape_fraction))
    parts = []
    if n_pos > 0:
        pos_flat = np.flatnonzero(data.reshape(-1))
        if pos_flat.size == 0:
            raise DegenerateLabelsError(
                "biased sampling with shape_fraction > 0 requires at least one positive voxel"
            )
        parts.append(pos_flat[rng.integers(0, pos_flat.size, size=n_pos)])
    if n - n_pos > 0:
        parts.append(rng.integers(0, data.size, size=n - n_pos))
    flat = np.concatenate(parts)
    rng.shuffle(flat)
    return _flat_to_coords(flat, data.shape), data.reshape(-1)[flat]


def _window_has_positive(data: np.ndarray, center, side: int) -> bool:
    lo = [c - side // 2 for c in center]
    sl = tuple(slice(max(a, 0), min(a + side, n)) for a, n in zip(lo, data.shape))
    if any(s.start >= s.stop for s in sl):
        return False
    return bool(data[sl].any())


def sample_pyramid_location(
    labels: LabelVolume,
    cfg: SamplerConfig,
    w: int,
    d: int,
    levels: int,
    rng: np.random.Generator,
) -> tuple[int, int, int]:
    """Draw a pyramid center, redrawing gun-free locations with ``redraw_prob``.

    A uniform center is drawn over the volume; if the probe window around it
    contains no positive voxel the draw is rejected with probability
    ``redraw_prob`` and repeated. Termination holds for all-negative volumes
    when ``redraw_prob < 1``, because every redraw is then still accepted
    with probability 1 - redraw_prob. At ``redraw_prob >= 1`` a hit must be
    possible: every positive voxel is hit by the center on it, so labels
    without one raise ``DegenerateLabelsError``.
    """
    data = labels.data
    if cfg.redraw_prob >= 1.0 and not data.any():
        raise DegenerateLabelsError(
            "pyramid sampling with redraw_prob = 1 requires at least one positive voxel"
        )
    dims = data.shape
    side = w if cfg.redraw_scope == "level0" else w * d ** (levels - 1)
    while True:
        center = tuple(int(rng.integers(0, n)) for n in dims)
        if _window_has_positive(data, center, side):
            return center
        if rng.random() >= cfg.redraw_prob:
            return center
