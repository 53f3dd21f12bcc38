"""Binary model checkpoints.

Layout (all integers little-endian):

    magic   8 bytes  b"HILOCKPT"
    version u16
    kind    u16 length + utf-8 model-kind string
    config  u32 length + utf-8 ``config_text`` of the model's config
            (HiLoConfig or OnetConfig, bare field names as keys)
    params  u32 count, then per entry:
              u16 name length + utf-8 name
              u8  rank, rank x u32 extents
              float32 payload, C order
    opt     u8 flag; when 1: u64 step, f64 lr/beta1/beta2/eps, then a second
            parameter table holding first/second moments as "m/<name>",
            "v/<name>" entries.

Values are always stored as float32, so a float64 verification-mode model
round-trips through float32 precision by design. An entry holding a NaN or
an infinity is a format error on reading, so a diverged model is never
loaded to predict. A file is written to a
temporary name in its directory and swapped in whole (``write_atomic``), so
a reader never sees a partial checkpoint; bytes after the last section are a
format error.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..data_io import write_atomic
from ..errors import FormatError

MAGIC = b"HILOCKPT"
VERSION = 1


def _write_str(out: bytearray, s: str, fmt: str) -> None:
    raw = s.encode("utf-8")
    out += struct.pack(f"<{fmt}", len(raw))
    out += raw


def _write_table(out: bytearray, table: dict[str, np.ndarray]) -> None:
    out += struct.pack("<I", len(table))
    for name, arr in table.items():
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        _write_str(out, name, "H")
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
        out += arr.tobytes()


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            missing = self.off + n - len(self.blob)
            raise FormatError(
                f"{self.path}: truncated checkpoint, {missing} bytes missing at offset {self.off}"
            )
        chunk = self.blob[self.off : self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(f"<{fmt}", self.take(struct.calcsize(f"<{fmt}")))

    def read_str(self, fmt: str) -> str:
        (n,) = self.unpack(fmt)
        return self.take(n).decode("utf-8")

    def read_table(self) -> dict[str, np.ndarray]:
        (count,) = self.unpack("I")
        table = {}
        for _ in range(count):
            name = self.read_str("H")
            (rank,) = self.unpack("B")
            shape = self.unpack(f"{rank}I") if rank else ()
            size = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(self.take(size * 4), dtype="<f4").reshape(shape)
            if not np.isfinite(data).all():
                raise FormatError(f"{self.path}: entry {name!r} holds non-finite values")
            table[name] = data.copy()
        return table


def save_checkpoint(
    path,
    model_kind: str,
    config_text: str,
    state: dict[str, np.ndarray],
    optimizer: dict | None = None,
) -> None:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", VERSION)
    _write_str(out, model_kind, "H")
    _write_str(out, config_text, "I")
    _write_table(out, state)
    if optimizer is None:
        out += struct.pack("<B", 0)
    else:
        out += struct.pack("<B", 1)
        out += struct.pack(
            "<Qdddd",
            optimizer["step"],
            optimizer["lr"],
            optimizer["beta1"],
            optimizer["beta2"],
            optimizer["eps"],
        )
        moments = {f"m/{k}": v for k, v in optimizer["m"].items()}
        moments.update({f"v/{k}": v for k, v in optimizer["v"].items()})
        _write_table(out, moments)
    write_atomic(path, out)


def load_checkpoint(path):
    """Returns (model_kind, config_text, state, optimizer_or_None)."""
    blob = Path(path).read_bytes()
    r = _Reader(blob, str(path))
    if r.take(len(MAGIC)) != MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint file")
    (version,) = r.unpack("H")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    kind = r.read_str("H")
    config_text = r.read_str("I")
    state = r.read_table()
    (has_opt,) = r.unpack("B")
    optimizer = None
    if has_opt:
        step, lr, b1, b2, eps = r.unpack("Qdddd")
        moments = r.read_table()
        optimizer = {
            "step": step,
            "lr": lr,
            "beta1": b1,
            "beta2": b2,
            "eps": eps,
            "m": {k[2:]: v for k, v in moments.items() if k.startswith("m/")},
            "v": {k[2:]: v for k, v in moments.items() if k.startswith("v/")},
        }
    if r.off != len(blob):
        raise FormatError(f"{path}: {len(blob) - r.off} trailing bytes after the checkpoint")
    return kind, config_text, state, optimizer
