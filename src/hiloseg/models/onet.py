"""Occupancy networks over pooled volumes, plus bounding-box extraction.

One model family serves two jobs. Trained on high-resolution coordinates it
upsamples a pooled volume into a fine occupancy field; trained for box
extraction it may instead classify coordinates of the pooled grid itself
(``coord_resolution="low"``), in which case the training labels are the
max-pooled originals.

The encoder is a small convolutional residual network ending in a fixed
adaptive pooling, so one parameter set accepts any input dims. The decoder
is a per-coordinate MLP conditioned on the encoder's latent either through
conditional normalization (``nn.Norm`` with ``cond_dim``) or by
concatenating the (repeated) latent onto each coordinate; the window-pyramid
models reuse it as their coordinate decoder.

Every normalization takes its statistics from one batch element alone: the
encoder's from the whole element, the decoder's per channel from a fixed
lattice of reference coordinates (``nn.REFERENCE_POINTS``) decoded along with
each element's queries, by whose root mean square it scales. So a
micro-batch gives the same outputs and gradients as the full batch, and a
point's occupancy never depends on the other points queried with it.

Training holds one decoder block's activations at a time. The encoder
runs through one ``F.recompute`` on the volume batch, and each
``ResidualBlockFC`` runs its per-point path through another, as the
window-pyramid models run their level encoders. ``F.recompute`` hands
its inputs over (``nn.tensor.hand_over``) once they have run, and the
encoder hands its input over after its stem, so those arrays die when
the code says, however the calls are spelled. Without a tape (MISE,
validation, ``onet_encode``, ``onet_decode``) that is all
``F.recompute`` does. Under a tape, until the backward the encoder keeps
only its input, a block only its input, each in its recompute node, and
the backward rebuilds one block's tape at a time, then the encoder's,
once the latent's gradient is complete. So a step that peaks in the
decoder holds no encoder activation, whatever the scan's size. The
conditioning stacks of a ``"cbn"`` block stay on the outer tape and
enter the recompute as their (B, 1, C) affines, never as the latent: the
latent then collects its gradient from each stack in the kept tape's
order, where a recompute node would hand it one partial sum per block,
and the encoder's gradients would move by an ulp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..inference import BoundingBox
from ..nn import functional as F
from ..nn.tensor import hand_over
from ..rng import make_rng
from ..voxel import VoxelVolume, average_pool

_INIT_STREAM = 21
# query points per decoder pass: bounds inference activations at any query size.
# 8,192 points (8,219 with the reference lattice) make a (1, 8219, 64) float32
# activation 2.1 MB, about one core's L2, and hold MISE's meter peak on the
# benchmark's onet-sr scans to 11.3 MB, below the trainer's; 65,536 gave 85.8 MB.
# Decoded probabilities do not depend on the size.
_DECODE_CHUNK = 1 << 13

CONDITIONINGS = ("cbn", "concat")


@dataclass(frozen=True)
class OnetConfig:
    conditioning: str = "cbn"
    encoder_blocks: int = 5
    decoder_blocks: int = 5
    input_downsample: int = 8
    threshold: float = 0.5
    latent_dim: int = 128
    base_channels: int = 16
    decoder_hidden: int = 64
    coord_resolution: str = "high"

    def __post_init__(self) -> None:
        if self.conditioning not in CONDITIONINGS:
            raise ValueError(f"conditioning must be one of {CONDITIONINGS}, got {self.conditioning!r}")
        if self.encoder_blocks < 1 or self.decoder_blocks < 1:
            raise ValueError("block counts must be >= 1")
        if self.input_downsample < 1:
            raise ValueError(f"input_downsample must be >= 1, got {self.input_downsample}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.latent_dim < 1 or self.base_channels < 1 or self.decoder_hidden < 1:
            raise ValueError("latent_dim, base_channels and decoder_hidden must be >= 1")
        if self.coord_resolution not in ("high", "low"):
            raise ValueError(f"coord_resolution must be 'high' or 'low', got {self.coord_resolution!r}")


def normalize_coords(coords, dims) -> np.ndarray:
    """Map integer voxel coordinates onto [0, 1]^3 by per-axis division.

    The quotient is float64; callers cast it to their model's dtype. Rounded
    to float32 it equals the correctly rounded float32 quotient.
    """
    return np.asarray(coords, dtype=np.float64) / np.asarray(dims, dtype=np.float64)


class OnetEncoder(nn.Module):
    """Convolutional residual encoder producing one latent vector per volume.

    Channels double once after the second block; average pooling follows the
    first two blocks whenever the spatial extent allows. A fixed adaptive
    pooling decouples the latent projection from the input dims.
    """

    def __init__(self, cfg: OnetConfig, rng, dtype=np.float32):
        c = cfg.base_channels
        # no bias on the stem, as on each block's conv1
        self.stem = nn.Conv3d(1, c, 3, rng, dtype, bias=False)
        outs = [c if i < 2 else 2 * c for i in range(cfg.encoder_blocks)]
        ins = [c] + outs[:-1]
        self.blocks = [
            nn.ResidualBlockConv3d(ci, co, rng, activation=F.leaky_relu, dtype=dtype)
            for ci, co in zip(ins, outs)
        ]
        self.final_norm = nn.Norm(outs[-1], dtype=dtype)
        self.head = nn.Dense(outs[-1] * 64, cfg.latent_dim, rng, dtype)

    def __call__(self, x):
        h = self.stem(x)
        hand_over(x)  # the input dies here (module docstring)
        for i, block in enumerate(self.blocks):
            h = block(h)
            if i < 2:
                h = self._pool_if_possible(h)
        h = F.leaky_relu(self.final_norm(h))
        b, d, hh, w, c = h.data.shape
        if min(d, hh, w) < 4:
            h = F.pad_right3d(h, (max(d, 4), max(hh, 4), max(w, 4)))
        h = F.adaptive_avg_pool3d(h, (4, 4, 4))
        return self.head(F.reshape(h, (b, 64 * c)))

    @staticmethod
    def _pool_if_possible(h):
        b, d, hh, w, c = h.data.shape
        if min(d, hh, w) < 2:
            return h
        target = (d + d % 2, hh + hh % 2, w + w % 2)
        return F.avg_pool3d(F.pad_right3d(h, target), 2)


class OnetDecoder(nn.Module):
    """Per-coordinate MLP classifier conditioned on one ``cond_dim`` vector
    per batch element, by ``"cbn"`` or ``"concat"`` conditioning."""

    def __init__(self, cond_dim: int, hidden: int, blocks: int, conditioning: str, activation,
                 rng, dtype=np.float32):
        self.cbn = conditioning == "cbn"
        self.activation = activation
        self.reference = nn.REFERENCE_POINTS.astype(dtype)
        ref = len(self.reference)
        norm_cond = cond_dim if self.cbn else None
        self.input = nn.Dense(3 if self.cbn else 3 + cond_dim, hidden, rng, dtype)
        self.blocks = [
            nn.ResidualBlockFC(hidden, hidden, rng, ref, activation=activation,
                               cond_dim=norm_cond, dtype=dtype)
            for _ in range(blocks)
        ]
        self.final_norm = nn.Norm(hidden, ref, norm_cond, rng, dtype)
        # zero logits at initialization: every coordinate starts at 0.5
        self.head = nn.Dense(hidden, 1, rng, dtype, zero_init=True)

    def __call__(self, coords01, latent):
        b, n, _ = coords01.data.shape
        lattice = np.broadcast_to(self.reference, (b,) + self.reference.shape)
        coords01 = F.concat([coords01, nn.Tensor(lattice)], axis=1)
        if self.cbn:
            h = self.input(coords01)
            cond = latent
        else:
            h = self.input(F.concat([coords01, F.repeat_middle(latent, n + len(self.reference))],
                                    axis=-1))
            cond = None
        for block in self.blocks:
            h = F.recompute(block.points, (h, *block.condition(cond)), block.point_parameters())
        h = self.final_norm(h, cond)
        out = F.sigmoid(F.slice_middle(self.head(self.activation(h)), n))
        return F.reshape(out, (b, n))


class OnetModel(nn.Module):
    def __init__(self, cfg: OnetConfig, seed: int = 0, dtype=np.float32):
        rng = make_rng(seed, _INIT_STREAM)
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.encoder = OnetEncoder(cfg, rng, dtype)
        self.decoder = OnetDecoder(cfg.latent_dim, cfg.decoder_hidden, cfg.decoder_blocks,
                                   cfg.conditioning, F.leaky_relu, rng, dtype)

    def __call__(self, vols, coords01) -> nn.Tensor:
        latent = F.recompute(self.encoder, (vols,), self.encoder.parameters())
        return self.decoder(coords01, latent)


def onet_encode(vol: VoxelVolume, cfg: OnetConfig, model: OnetModel) -> np.ndarray:
    """The (latent_dim,) latent code of a volume pooled by the configured
    factor, in the model's dtype, recording no tape. The pooled input tensor
    is made in the encoder call, which hands it over after the stem. Raises
    ``ValueError`` on a non-finite latent."""
    pooled = average_pool(vol, cfg.input_downsample) if cfg.input_downsample > 1 else vol
    with nn.no_grad():
        z = model.encoder(nn.Tensor(pooled.data[None, :, :, :, None].astype(model.dtype)))
    if not np.isfinite(z.data).all():
        raise ValueError("latent code contains non-finite values")
    return z.data[0]


def onet_decode(coords, latent: np.ndarray, cfg: OnetConfig, model: OnetModel,
                dims) -> np.ndarray:
    """Occupancy probabilities at (n, 3) integer voxel coordinates of a volume
    of ``dims`` against one (latent_dim,) latent, recording no tape."""
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"expected (n, 3) coordinates, got shape {coords.shape}")
    if not np.issubdtype(coords.dtype, np.integer):
        raise ValueError(f"expected integer voxel coordinates, got dtype {coords.dtype}")
    c01 = normalize_coords(coords, dims)
    z = nn.Tensor(latent[None].astype(model.dtype))
    with nn.no_grad():
        parts = [
            model.decoder(nn.Tensor(c01[None, a : a + _DECODE_CHUNK].astype(model.dtype)), z).data[0]
            for a in range(0, max(len(c01), 1), _DECODE_CHUNK)
        ]
    return np.concatenate(parts)


def extract_bounding_box(occupied: np.ndarray, dims, margin: int = 10) -> BoundingBox:
    """Box around the voxels of boolean mask ``occupied``, widened by
    ``margin`` and clamped to the volume bounds ``dims``. An empty mask
    yields the empty box."""
    return BoundingBox.from_points(np.argwhere(occupied)).expand(margin).clamp(dims)
