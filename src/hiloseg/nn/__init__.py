"""Minimal reverse-mode-differentiable numerical core."""

from . import functional
from .checkpoint import load_checkpoint, save_checkpoint
from .functional import (
    adaptive_avg_pool3d,
    avg_pool3d,
    bce_loss,
    concat,
    conv3d,
    elementwise_bce,
    elementwise_focal,
    focal_loss,
    leaky_relu,
    pad_right3d,
    repeat_middle,
    selu,
    sigmoid,
    upsample_nearest3d,
)
from .layers import (
    REFERENCE_POINTS,
    Conv3d,
    Dense,
    Module,
    Norm,
    ResidualBlockConv3d,
    ResidualBlockFC,
)
from .optim import Adam
from .tensor import Tensor, memory_meter, no_grad, parameter

__all__ = [
    "functional",
    "Tensor",
    "parameter",
    "no_grad",
    "memory_meter",
    "Module",
    "Dense",
    "Conv3d",
    "Norm",
    "REFERENCE_POINTS",
    "ResidualBlockFC",
    "ResidualBlockConv3d",
    "Adam",
    "conv3d",
    "avg_pool3d",
    "adaptive_avg_pool3d",
    "upsample_nearest3d",
    "pad_right3d",
    "repeat_middle",
    "concat",
    "leaky_relu",
    "selu",
    "sigmoid",
    "bce_loss",
    "focal_loss",
    "elementwise_bce",
    "elementwise_focal",
    "save_checkpoint",
    "load_checkpoint",
]
