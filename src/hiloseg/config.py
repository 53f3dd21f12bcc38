"""Line-oriented ``key = value`` configuration texts.

Used for run config files and for the config block embedded in checkpoints.
Run config keys are namespaced with dots (``hilo.window_size``); a checkpoint
block is ``config_text`` of its model's config, keyed by bare field names.
Values are plain strings here; typed coercion happens against a dataclass's
field defaults.
"""

from __future__ import annotations

import dataclasses

from .errors import FormatError


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise FormatError(f"{source}:{lineno}: empty key")
        out[key] = value.strip()
    return out


def format_kv(mapping: dict) -> str:
    lines = [f"{key} = {value}" for key, value in format_to_strings(mapping).items()]
    return "\n".join(lines) + ("\n" if lines else "")


def dataclass_to_kv(obj) -> dict[str, str]:
    return format_to_strings({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})


def format_to_strings(mapping: dict) -> dict[str, str]:
    out = {}
    for key, value in mapping.items():
        if isinstance(value, (tuple, list)):
            out[key] = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            out[key] = "true" if value else "false"
        else:
            out[key] = str(value)
    return out


def coerce_value(text: str, default):
    """Parse ``text`` into the type of ``default`` (bool, int, float, tuple, str)."""
    if isinstance(default, bool):
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise FormatError(f"expected a boolean, got {text!r}")
    if isinstance(default, int):
        return int(text)
    if isinstance(default, float):
        return float(text)
    if isinstance(default, tuple):
        elem = default[0] if default else 0
        parts = [p.strip() for p in text.split(",") if p.strip()]
        return tuple(type(elem)(p) for p in parts)
    return text


def kv_to_dataclass(cls, kv: dict[str, str]):
    """Build a dataclass from string values, defaults filling absent keys.

    A key that names no field of ``cls`` is a FormatError.
    """
    base = cls()
    unknown = sorted(set(kv) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise FormatError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    updates = {}
    for key, text in kv.items():
        try:
            updates[key] = coerce_value(text, getattr(base, key))
        except ValueError as exc:
            raise FormatError(f"bad value for {key}: {text!r} ({exc})") from exc
    return dataclasses.replace(base, **updates) if updates else base


def config_text(obj) -> str:
    return format_kv(dataclass_to_kv(obj))
