"""Window-pyramid segmentation models.

A pyramid is a (levels, w, w, w) array: a stack of equally shaped windows
around one location, each level covering a d-times larger region at d-times
coarser resolution. Every level gets its own encoder (independent weights,
identical architecture); the per-level encodings are concatenated and
decoded either into a dense probability grid over the level-0 window (grid
decoder) or into per-query occupancies at window-local coordinates
(coordinate decoder). The coordinate decoder is the occupancy network's
decoder (``OnetDecoder``) with SELU, conditioned by concatenating the
flattened level encodings onto each query.

Convolutional blocks standardize each window over its own space and channels
(``nn.Norm``); the coordinate decoder scales each channel by its root mean
square over a fixed lattice of reference coordinates decoded along with each
window's queries (``nn.Norm`` with ``ref``). No statistic crosses the batch, so
a batch gives the same outputs and gradients whole or split into
micro-batches.

A forward pass holds one pyramid level at a time. A level's input tensor
is drawn only when its encoder runs; each finished encoding lives until
the concat, and the concat until the pooled decoder blocks have run.
An array dies when the code says so, not when a call returns: each
encoder and the pooled decoder blocks run through ``F.recompute``, which
hands its inputs over (``nn.tensor.hand_over``) once they have run, the
encoder hands its level input over after its stem, and the grid decoder
hands the pooled map over once it is upsampled. A hand-over drops the
tensor's array however the call was spelled, so an instance call, a
star-call or a wrapper that keeps its arguments until it returns holds
the same bytes as a plain method call. Without a tape each residual block
writes its ops' results over its own temporaries (the in-place rule of
``nn.functional``), as does the SELU after the grid decoder's final norm.
So a segmentation tile peaks inside a convolution of the last level's
first encoder block, at that block's input and one working buffer (w³ ×
C each), one chunk of padded planes and one saved input plane, next to
the finished encodings.

Under a tape ``F.recompute`` keeps the inputs of each level encoder and
of the pooled blocks in its node, until the backward, and none of their
activations: a level keeps its input and its encoding, in the concat that
the pooled blocks' recompute node keeps. The backward rebuilds the
pooled blocks' tape, then one encoder's tape at a time, so a training
step, like segmentation, holds one level's activations at a time, and
each level adds one encoding to its peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import hand_over
from ..rng import make_rng
from .onet import OnetDecoder

_INIT_STREAM = 22

DECODERS = ("cnn", "onet")


@dataclass(frozen=True)
class HiLoConfig:
    window_size: int = 16
    downsampling_factor: int = 2
    levels: int = 2
    decoder: str = "cnn"
    encoder_blocks: int = 6
    cnn_decoder_blocks: int = 7
    onet_decoder_blocks: int = 3
    threshold: float = 0.5
    batch_size: int = 16
    base_channels: int = 6
    decoder_hidden: int = 64

    def __post_init__(self) -> None:
        if self.window_size < 4 or self.window_size % 2 != 0:
            raise ValueError(f"window_size must be even and >= 4, got {self.window_size}")
        if self.downsampling_factor < 2:
            raise ValueError(f"downsampling_factor must be >= 2, got {self.downsampling_factor}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}, got {self.decoder!r}")
        if min(self.encoder_blocks, self.cnn_decoder_blocks, self.onet_decoder_blocks) < 1:
            raise ValueError("block counts must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.base_channels < 1 or self.decoder_hidden < 1:
            raise ValueError("base_channels and decoder_hidden must be >= 1")

    @property
    def kind(self) -> str:
        """The model family a checkpoint of this config names; the decoder
        is in the config block."""
        return "hilo"


def coordinate_pool_schedule(window_size: int, blocks: int) -> list[bool]:
    """Which encoder blocks are followed by a pooling in the coordinate path.

    Pooling follows the leading blocks for as long as the spatial side stays
    even and at least 3 after halving, which bounds the flattened encoding
    that feeds the decoder's first dense layer.
    """
    schedule = []
    side = window_size
    pooling = True
    for _ in range(blocks):
        pooling = pooling and side % 2 == 0 and side // 2 >= 3
        schedule.append(pooling)
        if pooling:
            side //= 2
    return schedule


class HiLoEncoder(nn.Module):
    """Per-level window encoder: a stem and a chain of residual blocks.

    The grid path pools once after the first block and keeps the spatial
    map; the coordinate path pools by the schedule above and flattens.
    """

    def __init__(self, cfg: HiLoConfig, rng, dtype=np.float32):
        c = cfg.base_channels
        self.grid_output = cfg.decoder == "cnn"
        self.stem = nn.Conv3d(1, c, 3, rng, dtype, bias=False)
        self.blocks = [
            nn.ResidualBlockConv3d(c, c, rng, dtype=dtype)
            for _ in range(cfg.encoder_blocks)
        ]
        if self.grid_output:
            self.pools = [i == 0 for i in range(cfg.encoder_blocks)]
        else:
            self.pools = coordinate_pool_schedule(cfg.window_size, cfg.encoder_blocks)

    def __call__(self, x):
        h = self.stem(x)
        hand_over(x)  # the level input dies here (module docstring)
        for block, pool in zip(self.blocks, self.pools):
            h = block(h)
            if pool:
                h = F.avg_pool3d(h, 2)
        if self.grid_output:
            return h
        b = h.data.shape[0]
        return F.reshape(h, (b, int(np.prod(h.data.shape[1:]))))


class HiLoGridDecoder(nn.Module):
    """Concatenated feature maps to a window-sized probability grid.

    All but the last block run at the pooled resolution; one upsampling
    before the last block restores the window side, so the output aligns
    voxel-for-voxel with the level-0 window. Upsampling late keeps the
    expensive full-resolution maps down to a single block, which is what
    bounds the training-memory peak.

    The pooled blocks run through one ``F.recompute`` on the concat, so
    under a tape they keep the concat alone until the backward, and the
    concat gives up its array once they have run. The last block keeps its
    tape: a training step peaks in that block's backward, where its
    activations are alive anyway, and a recompute there would only add its
    input.
    """

    def __init__(self, cfg: HiLoConfig, rng, dtype=np.float32):
        c = cfg.base_channels
        ins = [cfg.levels * c] + [c] * (cfg.cnn_decoder_blocks - 1)
        self.blocks = [
            nn.ResidualBlockConv3d(ci, c, rng, dtype=dtype) for ci in ins
        ]
        self.final_norm = nn.Norm(c, dtype=dtype)
        self.head = nn.Conv3d(c, 1, 3, rng, dtype, zero_init=True)

    def __call__(self, h):
        *pooled, last = self.blocks
        if pooled:
            h = F.recompute(self._pooled, (h,), [p for b in pooled for p in b.parameters()])
        pooled_map, h = h, F.upsample_nearest3d(h, 2)
        hand_over(pooled_map)
        h = last(h)
        h = F.selu(self.final_norm(h), inplace=True)  # over the norm's own output
        out = F.sigmoid(self.head(h))
        b, d, hh, w, _ = out.data.shape
        return F.reshape(out, (b, d, hh, w))

    def _pooled(self, h):
        """The blocks before the upsampling, as one function to recompute."""
        for block in self.blocks[:-1]:
            h = block(h)
        return h


class HiLoModel(nn.Module):
    def __init__(self, cfg: HiLoConfig, seed: int = 0, dtype=np.float32):
        rng = make_rng(seed, _INIT_STREAM)
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.encoders = [HiLoEncoder(cfg, rng, dtype) for _ in range(cfg.levels)]
        if cfg.decoder == "cnn":
            self.decoder = HiLoGridDecoder(cfg, rng, dtype)
        else:
            side = cfg.window_size >> sum(self.encoders[0].pools)
            self.decoder = OnetDecoder(cfg.levels * side**3 * cfg.base_channels,
                                       cfg.decoder_hidden, cfg.onet_decoder_blocks, "concat",
                                       F.selu, rng, dtype)

    def forward_batch(self, level_inputs, coords01=None) -> nn.Tensor:
        """``level_inputs`` yields one (B, w, w, w, 1) tensor per pyramid
        level, each drawn only when its encoder runs (module docstring)."""
        grid = self.cfg.decoder == "cnn"
        if grid and coords01 is not None:
            raise ValueError("the grid decoder takes no coordinate query")
        if not grid and coords01 is None:
            raise ValueError("the coordinate decoder needs a coordinate query")
        if grid:
            return self.decoder(self._encode(level_inputs))
        return self.decoder(coords01, self._encode(level_inputs))

    def _encode(self, level_inputs) -> nn.Tensor:
        """The level encodings concatenated along channels, each through
        ``F.recompute`` (module docstring)."""
        n = len(self.encoders)
        levels = iter(level_inputs)
        try:
            encs = [F.recompute(enc, (next(levels),), enc.parameters()) for enc in self.encoders]
        except StopIteration:
            raise ValueError(f"pyramid has fewer levels than the model's {n}") from None
        if next(levels, None) is not None:
            raise ValueError(f"pyramid has more levels than the model's {n}")
        return encs[0] if len(encs) == 1 else F.concat(encs, axis=-1)


def hilo_forward(pyr: np.ndarray, cfg: HiLoConfig, model: HiLoModel, coords=None) -> np.ndarray:
    """Evaluate one pyramid on a built model without recording a tape.

    ``pyr`` is the (levels, w, w, w) array ``build_pyramid`` returns. The
    result, in the model's dtype, is the (w, w, w) probability grid for
    either decoder (the coordinate decoder is asked, in one call, for every
    voxel of the window in C order), or the coordinate decoder's (n,)
    probabilities at an (n, 3) array ``coords`` of window-local integer
    coordinates. Each level is copied into a metered tensor of the model's
    dtype only when its encoder runs, and the encoder hands the copy over
    after its stem, so one level's activations are alive at a time next to
    the finished encodings.
    """
    w = cfg.window_size
    if pyr.shape != (cfg.levels, w, w, w):
        raise ValueError(f"pyramid has shape {pyr.shape}, config expects "
                         f"(levels, w, w, w) = {(cfg.levels, w, w, w)}")
    whole_window = coords is None and cfg.decoder == "onet"
    if whole_window:
        r = np.arange(w, dtype=np.int64)
        coords = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    levels = (nn.Tensor(lv[None, :, :, :, None].astype(model.dtype)) for lv in pyr)
    coords01 = None
    if coords is not None:
        coords01 = nn.Tensor(np.asarray(coords, dtype=model.dtype)[None] / float(w))
    with nn.no_grad():
        out = model.forward_batch(levels, coords01)
    probs = out.data[0].copy()
    return probs.reshape(w, w, w) if whole_window else probs
