"""Model/optimizer hyper-parameters and the named configuration profiles."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Any

import numpy as np


class ConfigError(ValueError):
    """Bad configuration key or value."""


# the values each field annotation admits: an int is a valid float
_ADMITTED = {"int": numbers.Integral, "float": numbers.Real, "str": str}


@dataclass
class ModelConfig:
    """Every knob of the model, the optimizer, and the data pipeline.

    The class count is not one: it is the training data's relation count.
    """

    word_dim: int = 200
    position_dim: int = 50           # total over head+tail tables; must be even
    max_distance: int = 30           # relative distances clipped to [-max, +max]
    time_steps: int = 70             # fixed sentence length after pad/truncate
    hidden_size: int = 300           # LSTM units per direction
    word_attention_hidden: int = 300
    word_attention_rows: int = 9
    mlp_size: int = 1000
    sent_attention_hidden: int = 300
    sent_attention_rows: int = 9     # 1 = plain 1-D sentence-level attention
    batch_size: int = 64
    learning_rate: float = 1e-3
    penalty_coef: float = 1.0        # weight of the attention-orthogonality penalty
    l2_coef: float = 1e-4            # applies to weight matrices, not biases/embeddings
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 30
    seed: int = 0
    precision: str = "float32"       # "float64" for gradient checking
    dropout: float = 0.0             # drop probability on instance representations; 0 = off
    grad_clip: float = 0.0           # global-norm clip; 0 = off

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.precision)

    @property
    def position_table_dim(self) -> int:
        return self.position_dim // 2

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int to Python, but never a size, a count or a rate here
            if isinstance(value, bool) or not isinstance(value, _ADMITTED[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        dims = (
            "word_dim", "position_dim", "max_distance", "time_steps",
            "hidden_size", "word_attention_hidden", "word_attention_rows",
            "mlp_size", "sent_attention_hidden", "sent_attention_rows",
            "batch_size",
        )
        for name in dims:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.position_dim % 2 != 0:
            raise ConfigError("position_dim must be even (split over head and tail tables)")
        for name in ("learning_rate", "adam_eps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.precision not in ("float32", "float64"):
            raise ConfigError(f"precision must be float32 or float64, got {self.precision!r}")
        for name in ("dropout", "adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        for name in ("penalty_coef", "l2_coef", "grad_clip"):   # 0 turns each off
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")

    def replace(self, **changes: Any) -> "ModelConfig":
        cfg = replace(self, **changes)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def field_names(cls) -> list[str]:
        return [f.name for f in fields(cls)]

    @classmethod
    def from_dict(cls, values: dict[str, Any]) -> "ModelConfig":
        known = set(cls.field_names())
        unknown = sorted(set(values) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg = cls(**values)
        cfg.validate()
        return cfg

    @classmethod
    def from_profile(cls, name: str, **overrides: Any) -> "ModelConfig":
        if name not in PROFILES:
            raise ConfigError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")
        merged = dict(PROFILES[name])
        merged.update(overrides)
        return cls.from_dict(merged)


# The nyt and pt profiles carry the published full-scale settings for the two
# benchmark corpora; synth is a desk-scale profile sized for the bundled
# synthetic-data harness.
PROFILES: dict[str, dict[str, Any]] = {
    "nyt": {
        "word_dim": 200, "position_dim": 50, "batch_size": 64, "time_steps": 70,
        "learning_rate": 1e-3, "hidden_size": 300, "word_attention_hidden": 300,
        "word_attention_rows": 9, "mlp_size": 1000, "penalty_coef": 1.0,
        "sent_attention_hidden": 300, "sent_attention_rows": 9,
    },
    "pt": {
        "word_dim": 300, "position_dim": 50, "batch_size": 50, "time_steps": 70,
        "learning_rate": 1e-3, "hidden_size": 300, "word_attention_hidden": 300,
        "word_attention_rows": 5, "mlp_size": 1000, "penalty_coef": 1.0,
        "sent_attention_hidden": 300, "sent_attention_rows": 3,
    },
    "synth": {
        "word_dim": 32, "position_dim": 10, "batch_size": 32, "time_steps": 12,
        "learning_rate": 1e-3, "hidden_size": 32, "word_attention_hidden": 32,
        "word_attention_rows": 4, "mlp_size": 64, "penalty_coef": 1.0,
        "sent_attention_hidden": 32, "sent_attention_rows": 3, "epochs": 30,
    },
}
