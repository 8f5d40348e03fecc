"""Flat sectioned key=value configuration files.

One section per module; unknown sections or keys are rejected so typos
fail loudly. An empty value unsets a key that has no default; a key
with a default must have a value. Flag overrides are applied on top of
the file by the CLI, through the same typed `set_value`.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import MISSING, fields
from pathlib import Path

from .data import EXPLANATION_LIMIT, SENTENCE_LIMIT
from .evaluation import EVAL_BATCH_SIZE
from .training import TrainConfig


class ConfigError(ValueError):
    pass


def _strlist(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(raw)
    return value


SCHEMA: dict[str, dict[str, type | object]] = {
    "data": {
        "train": str, "valid": str, "test": str,
        "embeddings": str, "embedding_dim": int, "min_count": int,
        "sentence_limit": int, "explanation_limit": int,
        "col_gold_label": str, "col_premise": str, "col_hypothesis": str,
        "col_explanations": _strlist, "col_premise_highlights": _strlist,
        "col_hypothesis_highlights": _strlist, "col_id": str,
    },
    "model": {
        "variant": str, "encoder_hidden": int, "decoder_hidden": int,
        "classifier_width": int, "max_decode_len": int,
    },
    "training": {
        "alpha": float, "epochs": _positive_int, "batch_size": _positive_int,
        "lr": float, "decay": float, "dropout": float, "seed": int,
        "clip_norm": float, "weight_decay": float,
    },
    "eval": {
        "batch_size": _positive_int, "expl_classifier": str,
        "annotations": str, "expl_at_k_mode": str,
    },
}

_RUN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)
                 if f.default not in (MISSING, None)}

# [model] and [training] defaults are TrainConfig's; [data] embedding_dim
# is its embed_dim.
DEFAULTS = {
    "data": {"embedding_dim": _RUN_DEFAULTS["embed_dim"], "min_count": 15,
             "sentence_limit": SENTENCE_LIMIT,
             "explanation_limit": EXPLANATION_LIMIT},
    "model": {k: _RUN_DEFAULTS[k] for k in SCHEMA["model"]
              if k in _RUN_DEFAULTS},
    "training": {k: _RUN_DEFAULTS[k] for k in SCHEMA["training"]
                 if k in _RUN_DEFAULTS},
    "eval": {"batch_size": EVAL_BATCH_SIZE, "expl_at_k_mode": "partial"},
}

DATA_ROOT_ENV = "NLIEXPL_DATA_ROOT"


def empty_config() -> dict[str, dict]:
    return {section: dict(values) for section, values in DEFAULTS.items()}


def load_config(path) -> dict[str, dict]:
    """Parse and validate a config file against the schema."""
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    config = empty_config()
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            set_value(config, section, key, raw)
    return config


def set_value(config: dict, section: str, key: str, raw) -> None:
    """Typed assignment of one key, from a string or an already typed
    flag value; unknown keys are rejected."""
    if section not in SCHEMA or key not in SCHEMA[section]:
        raise ConfigError(f"unknown config key [{section}] {key}")
    if raw is None or (isinstance(raw, str) and not raw.strip()):
        if key in DEFAULTS.get(section, {}):
            raise ConfigError(f"[{section}] {key} needs a value")
        config[section][key] = None
        return
    parse = SCHEMA[section][key]
    try:
        config[section][key] = parse(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"bad value for [{section}] {key}: {raw!r}") from None


def apply_override(config: dict, dotted: str, raw: str) -> None:
    """Apply a "section.key=value" style override."""
    if "." not in dotted:
        raise ConfigError(f"override must be section.key, got {dotted!r}")
    section, key = dotted.split(".", 1)
    set_value(config, section, key, raw)


def resolve_path(value: str | None) -> Path | None:
    """Resolve a configured path against the data-root env var."""
    if value is None:
        return None
    p = Path(value)
    root = os.environ.get(DATA_ROOT_ENV)
    if root and not p.is_absolute():
        return Path(root) / p
    return p
