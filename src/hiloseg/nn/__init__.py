"""Minimal reverse-mode-differentiable numerical core.

Ops live in ``nn.functional`` and the checkpoint format in
``nn.checkpoint``; this package exports the tensor, the layers and the
optimizer.
"""

from . import functional
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
]
