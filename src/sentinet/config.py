"""Pipeline configuration: flat key=value files with SENTINEL_* env overrides.

:class:`PipelineConfig` is the only declaration of the run parameters. Each
field's annotation gives its value type (``X | None`` when it may be left
empty), a field without a default is required, and the config parser, the
validation, the stage fingerprints and the CLI defaults all read them from
there.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, fields
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, get_args, get_type_hints

from .errors import ConfigError
from .fileio import atomic_open
from .ingest import format_timestamp, parse_timestamp


@dataclass(frozen=True)
class PipelineConfig:
    corpus: Path
    output_dir: Path
    window_start: date
    window_end: date
    split: datetime
    seed: int = 13
    sentinel_k: int = 15
    top_m: int = 50
    domain_min_count: int = 10
    score_clusters: int = 3
    burst_threshold: float = 2.0
    min_history: int = 7
    lsa_k: int = 5
    match_threshold: float = 0.5
    anchor_domain: str | None = None
    adf_alpha: float = 0.05
    language_filter: str = "ascii"
    english_threshold: float = 0.8
    stopwords: Path | None = None
    shorteners: Path | None = None
    lexicon_dir: Path | None = None
    coding: Path | None = None
    contingency: Path | None = None


FIELDS = {f.name: f for f in fields(PipelineConfig)}
_HINTS = get_type_hints(PipelineConfig)
_OPTIONAL = {name for name, hint in _HINTS.items() if type(None) in get_args(hint)}
# field -> value type, with any ``| None`` removed
_TYPES: dict[str, type] = {
    name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
    for name, hint in _HINTS.items()
}
# external input files, fingerprinted by content and checked to exist
INPUT_FIELDS = tuple(
    name for name, kind in _TYPES.items() if kind is Path and name != "output_dir"
)
_PARSERS: dict[type, Callable[[str], Any]] = {
    int: int,
    float: float,
    str: str,
    Path: Path,
    date: date.fromisoformat,
    datetime: parse_timestamp,
}
_FORMATTERS: dict[type, Callable[[Any], str]] = {
    date: date.isoformat,
    datetime: format_timestamp,
}
_ENV_PREFIX = "SENTINEL_"


def value_parser(name: str) -> Callable[[str], Any]:
    """The function that parses a text value of field ``name``."""
    return _PARSERS[_TYPES[name]]


def _convert(name: str, raw: str):
    value = raw.strip()
    if value == "" and name in _OPTIONAL:
        return None
    return value_parser(name)(value)


def parse_config(
    text: str, env: Mapping[str, str] | None = None, base_dir: Path | None = None
) -> PipelineConfig:
    """Parse key=value lines; SENTINEL_<KEY> env vars override file values.

    Relative paths resolve against ``base_dir`` when given (the config
    file's directory, normally).
    """
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in FIELDS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        raw[key] = value
    env = os.environ if env is None else env
    by_variable = {f"{_ENV_PREFIX}{name.upper()}": name for name in FIELDS}
    for variable, override in env.items():
        if variable.startswith(_ENV_PREFIX):
            if variable not in by_variable:
                raise ConfigError(f"unknown environment variable {variable!r}")
            raw[by_variable[variable]] = override
    missing = [
        name for name, f in FIELDS.items() if f.default is MISSING and name not in raw
    ]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    values = {}
    for name, value in raw.items():
        try:
            values[name] = _convert(name, value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {name!r}: {exc}") from exc
    if base_dir is not None:
        for name, kind in _TYPES.items():
            if kind is Path and values.get(name) is not None and not values[name].is_absolute():
                values[name] = base_dir / values[name]
    config = PipelineConfig(**values)
    validate_config(config)
    return config


def load_config(path: str | Path, env: Mapping[str, str] | None = None) -> PipelineConfig:
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), env=env, base_dir=path.parent)


# field -> the condition its value must meet beyond its type, and how it reads
_RANGES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "burst_threshold": (lambda v: v > 0, "positive"),
    "match_threshold": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "english_threshold": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "language_filter": (lambda v: v in ("ascii", "none"), "ascii or none"),
    "adf_alpha": (lambda v: v in (0.01, 0.05, 0.10), "0.01, 0.05 or 0.10"),
}


def check_value(name: str, value: Any) -> None:
    """Raise :class:`ConfigError` unless ``value`` is valid for field ``name``.

    Ints but the seed must be positive, floats finite, the fields in
    ``_RANGES`` inside their range, and input files must exist. ``output_dir``
    may not be a file or lie under one. An optional field may be None.
    """
    kind = _TYPES[name]
    if value is None and name in _OPTIONAL:
        return
    if kind is int and name != "seed" and value <= 0:
        raise ConfigError(f"{name} must be positive")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    if name in _RANGES and not _RANGES[name][0](value):
        raise ConfigError(f"{name} must be {_RANGES[name][1]}")
    if name in INPUT_FIELDS and not Path(value).exists():
        raise ConfigError(f"{name} path not found: {value}")
    if name == "output_dir":
        # the nearest of it and its parents that exists (a dangling link too) must be a directory
        paths = (Path(value), *Path(value).parents)
        found = next((p for p in paths if p.exists() or p.is_symlink()), None)
        if found is not None and not found.is_dir():
            raise ConfigError(f"output_dir {value}: {found} is not a directory")


def validate_config(config: PipelineConfig) -> None:
    if config.split.utcoffset() is None:
        raise ConfigError("split must carry a timezone")
    if config.window_start > config.window_end:
        raise ConfigError("window_start is after window_end")
    # the UTC day, as the config file writes the split
    split_day = config.split.astimezone(timezone.utc).date()
    if not (config.window_start <= split_day <= config.window_end):
        raise ConfigError("split timestamp falls outside the observation window")
    for name in FIELDS:
        check_value(name, getattr(config, name))


def serialize_config(config: PipelineConfig) -> str:
    lines = []
    for name, kind in _TYPES.items():
        value = getattr(config, name)
        rendered = "" if value is None else _FORMATTERS.get(kind, str)(value)
        lines.append(f"{name}={rendered}")
    return "\n".join(lines) + "\n"


def write_config(config: PipelineConfig, path: str | Path) -> None:
    with atomic_open(path) as handle:
        handle.write(serialize_config(config))
