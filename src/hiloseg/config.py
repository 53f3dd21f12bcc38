"""Line-oriented ``key = value`` configuration texts and the one bridge
between them and config dataclasses.

Used for run config files and for the config block embedded in checkpoints.
A setting's key is its field name; the settings of a nested dataclass field
are keyed ``<field>.<key>``, to any depth, and an optional prefix names the
top level's own fields. So a run config keys ``run.seed`` and
``hilo.window_size``, and a checkpoint block, ``config_text`` of its model's
config, keys bare field names. ``config_values`` lists the typed settings of
a config by key; ``with_values`` sets typed settings by key; ``read_config``
reads settings from text, coercing each to the type of the value it
replaces and refusing any key ``config_values`` does not list.
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


def _format_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def format_kv(mapping: dict) -> str:
    return "".join(f"{key} = {_format_value(value)}\n" for key, value in mapping.items())


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


def config_values(obj, prefix: str = "") -> dict[str, object]:
    """Every setting of dataclass ``obj`` by its key, in field order."""
    out: dict[str, object] = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out.update({f"{f.name}.{k}": v for k, v in config_values(value).items()})
        else:
            out[prefix + f.name] = value
    return out


def with_values(obj, values: dict[str, object], prefix: str = ""):
    """``obj`` with typed ``values`` set by their ``config_values`` keys."""
    own: dict[str, object] = {}
    parts: dict[str, dict[str, object]] = {}
    for key, value in values.items():
        name = key.removeprefix(prefix)
        if "." in name:
            part, rest = name.split(".", 1)
            parts.setdefault(part, {})[rest] = value
        else:
            own[name] = value
    own.update({part: with_values(getattr(obj, part), kw) for part, kw in parts.items()})
    return dataclasses.replace(obj, **own)


def read_config(obj, kv: dict[str, str], prefix: str = ""):
    """``obj`` with the settings ``kv`` holds as text; absent keys keep
    ``obj``'s values. A key ``config_values`` does not list, or a value that
    does not parse, is a FormatError naming the key."""
    current = config_values(obj, prefix)
    unknown = sorted(set(kv) - set(current))
    if unknown:
        raise FormatError(f"unknown {type(obj).__name__} keys: {', '.join(unknown)}")
    values = {}
    for key, text in kv.items():
        try:
            values[key] = coerce_value(text, current[key])
        except ValueError as exc:
            raise FormatError(f"bad value for {key}: {text!r} ({exc})") from exc
    return with_values(obj, values, prefix)


def config_text(obj, prefix: str = "") -> str:
    return format_kv(config_values(obj, prefix))
