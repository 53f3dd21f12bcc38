"""Exception types shared across the package."""


class DataError(ValueError):
    """The data cannot serve the operation: a malformed file, labels without
    a positive voxel, scans that cannot batch. The CLI exits 2 on it."""


class FormatError(DataError):
    """A file (volume, manifest, checkpoint) does not match its declared format."""


class DivergenceError(RuntimeError):
    """Training aborted because the loss became non-finite or ran away."""


class DegenerateLabelsError(DataError):
    """An operation required positive label voxels but none exist."""
