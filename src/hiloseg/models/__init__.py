"""Model families: pooled-volume occupancy networks and window-pyramid
segmentation networks, plus their training loops."""

from .hilo import (
    DECODERS,
    HiLoConfig,
    HiLoModel,
    coordinate_pool_schedule,
    hilo_forward,
)
from .onet import (
    CONDITIONINGS,
    OnetConfig,
    OnetModel,
    extract_bounding_box,
    normalize_coords,
    onet_decode,
    onet_encode,
)
from .train import train_hilo, train_superres_onet

__all__ = [
    "CONDITIONINGS",
    "DECODERS",
    "HiLoConfig",
    "HiLoModel",
    "OnetConfig",
    "OnetModel",
    "coordinate_pool_schedule",
    "extract_bounding_box",
    "hilo_forward",
    "normalize_coords",
    "onet_decode",
    "onet_encode",
    "train_hilo",
    "train_superres_onet",
]
