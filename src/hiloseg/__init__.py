"""Memory-bounded 3D semantic segmentation on voxel volumes.

The package trains and runs two model families without ever holding a full
high-resolution scan in working memory: occupancy networks that decode
per-coordinate labels from a latent code of a heavily pooled volume, and
window-pyramid networks whose input is a stack of progressively coarser
windows around one location. Everything downstream (tiled inference,
multiresolution occupancy evaluation, bounded training queues) exists to
keep the peak footprint proportional to window size, not scan size.
"""

from .errors import DataError, DegenerateLabelsError, DivergenceError, FormatError
from .rng import make_rng
from .voxel import (
    IntegralVolume,
    LabelVolume,
    VoxelVolume,
    average_pool,
    build_pyramid,
    extract_window,
    integral_volume,
    max_pool,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DegenerateLabelsError",
    "DivergenceError",
    "FormatError",
    "IntegralVolume",
    "LabelVolume",
    "VoxelVolume",
    "average_pool",
    "build_pyramid",
    "extract_window",
    "integral_volume",
    "make_rng",
    "max_pool",
    "__version__",
]
