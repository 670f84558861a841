"""Pipeline configuration: flat key=value files with SENTINEL_* env overrides."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from datetime import date, datetime
from pathlib import Path
from typing import Mapping

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


_PATH_FIELDS = {"corpus", "output_dir", "stopwords", "shorteners", "lexicon_dir", "coding", "contingency"}
_OPTIONAL_FIELDS = {"anchor_domain", "stopwords", "shorteners", "lexicon_dir", "coding", "contingency"}
_INT_FIELDS = {"seed", "sentinel_k", "top_m", "domain_min_count", "score_clusters", "min_history", "lsa_k"}
_FLOAT_FIELDS = {"burst_threshold", "match_threshold", "adf_alpha", "english_threshold"}
_REQUIRED = ("corpus", "output_dir", "window_start", "window_end", "split")


def _convert(name: str, raw: str):
    value = raw.strip()
    if value == "" and name in _OPTIONAL_FIELDS:
        return None
    if name in _INT_FIELDS:
        return int(value)
    if name in _FLOAT_FIELDS:
        return float(value)
    if name in _PATH_FIELDS:
        return Path(value)
    if name in ("window_start", "window_end"):
        return date.fromisoformat(value)
    if name == "split":
        return parse_timestamp(value)
    return value


def parse_config(
    text: str, env: Mapping[str, str] | None = None, base_dir: Path | None = None
) -> PipelineConfig:
    """Parse key=value lines; SENTINEL_<KEY> env vars override file values.

    Relative paths resolve against ``base_dir`` when given (the config
    file's directory, normally).
    """
    known = {f.name for f in fields(PipelineConfig)}
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        raw[key] = value
    env = os.environ if env is None else env
    for name in known:
        override = env.get(f"SENTINEL_{name.upper()}")
        if override is not None:
            raw[name] = override
    missing = [name for name in _REQUIRED if name not in raw]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    values = {}
    for name, value in raw.items():
        try:
            values[name] = _convert(name, value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {name!r}: {exc}") from exc
    if base_dir is not None:
        for name in _PATH_FIELDS:
            if values.get(name) is not None and not Path(values[name]).is_absolute():
                values[name] = base_dir / values[name]
    config = PipelineConfig(**values)
    validate_config(config)
    return config


def load_config(path: str | Path, env: Mapping[str, str] | None = None) -> PipelineConfig:
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), env=env, base_dir=path.parent)


def validate_config(config: PipelineConfig) -> None:
    if config.window_start > config.window_end:
        raise ConfigError("window_start is after window_end")
    split_day = config.split.date()
    if not (config.window_start <= split_day <= config.window_end):
        raise ConfigError("split timestamp falls outside the observation window")
    for name in _INT_FIELDS - {"seed"}:
        if getattr(config, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if config.language_filter not in ("ascii", "none"):
        raise ConfigError("language_filter must be ascii or none")
    if config.adf_alpha not in (0.01, 0.05, 0.10):
        raise ConfigError("adf_alpha must be 0.01, 0.05 or 0.10")
    if not Path(config.corpus).exists():
        raise ConfigError(f"corpus file not found: {config.corpus}")
    for name in ("stopwords", "shorteners", "lexicon_dir", "coding", "contingency"):
        value = getattr(config, name)
        if value is not None and not Path(value).exists():
            raise ConfigError(f"{name} path not found: {value}")


def serialize_config(config: PipelineConfig) -> str:
    lines = []
    for field_info in fields(PipelineConfig):
        value = getattr(config, field_info.name)
        if value is None:
            rendered = ""
        elif field_info.name == "split":
            rendered = format_timestamp(value)
        elif isinstance(value, date):
            rendered = value.isoformat()
        else:
            rendered = str(value)
        lines.append(f"{field_info.name}={rendered}")
    return "\n".join(lines) + "\n"


def write_config(config: PipelineConfig, path: str | Path) -> None:
    with atomic_open(path) as handle:
        handle.write(serialize_config(config))
