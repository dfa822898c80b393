"""Model/training configuration record, shipped presets, and overrides."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .engine import dropout_threshold
from .evaluation import MetricSpec

# The values each choice field of ModelConfig accepts.
CHOICES: dict[str, tuple[str, ...]] = {
    "input_mode": ("raw", "learnable-orthogonal", "fixed-orthogonal", "all-ones",
                   "random-uniform"),
    "conv": ("gcn", "sage", "gin"),
    "decoder": ("dot", "mlp"),
    "dtype": ("float32", "float64"),
}


@dataclass(frozen=True)
class ModelConfig:
    """Everything that defines a run: architecture, training, metric."""

    # input representation
    input_mode: str = "learnable-orthogonal"
    # encoder
    conv: str = "gcn"
    mpnn_layers: int = 2
    hidden_dim: int = 256
    linear_encoder: bool = True
    encoder_residual: bool = True
    normalize_embeddings: bool = False
    # decoder
    decoder: str = "mlp"
    mlp_layers: int = 2
    decoder_residual: bool = True
    dropout: float = 0.2
    # training
    lr: float = 1e-3
    epochs: int = 500
    batch_size: int = 2048
    neg_ratio: int = 3
    mask_input: bool = False
    eval_every: int = 5
    patience: int = 20
    # evaluation + numerics
    metric: str = "hits@100"
    dtype: str = "float32"

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        if self.mpnn_layers < 1 or self.hidden_dim < 1:
            raise ValueError("mpnn_layers and hidden_dim must be >= 1")
        if self.mlp_layers < 0:
            raise ValueError("mlp_layers must be >= 0 (0: the head alone on the "
                             "Hadamard product)")
        if self.batch_size < 1 or self.neg_ratio < 1 or self.epochs < 1:
            raise ValueError("batch_size, neg_ratio and epochs must be >= 1")
        for name in ("eval_every", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.lr < np.inf:  # also rejects nan; 0 freezes the parameters
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        dropout_threshold(self.dropout)
        MetricSpec.parse(self.metric)

    def replace(self, **kw) -> "ModelConfig":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @property
    def np_dtype(self):
        return np.dtype(self.dtype).type


def config_hash(cfg: ModelConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# Tuned per-dataset settings; metric is each dataset's headline ranking metric.
PRESETS: dict[str, ModelConfig] = {
    "cora": ModelConfig(
        input_mode="raw", mpnn_layers=4, hidden_dim=1024, batch_size=2048,
        dropout=0.6, mask_input=True, normalize_embeddings=True, mlp_layers=4,
        lr=5e-3, metric="hits@100"),
    "citeseer": ModelConfig(
        input_mode="raw", mpnn_layers=4, hidden_dim=1024, batch_size=4096,
        dropout=0.6, mask_input=True, normalize_embeddings=True, mlp_layers=2,
        lr=1e-3, metric="hits@100"),
    "pubmed": ModelConfig(
        input_mode="raw", mpnn_layers=4, hidden_dim=512, batch_size=4096,
        dropout=0.4, mask_input=True, normalize_embeddings=True, mlp_layers=2,
        lr=1e-3, metric="hits@100"),
    "ddi": ModelConfig(
        input_mode="learnable-orthogonal", mpnn_layers=2, hidden_dim=1024,
        batch_size=8192, dropout=0.6, mask_input=True,
        normalize_embeddings=False, mlp_layers=8, lr=1e-3, metric="hits@20"),
    "collab": ModelConfig(
        input_mode="raw", mpnn_layers=4, hidden_dim=512, batch_size=16384,
        dropout=0.2, mask_input=False, normalize_embeddings=True, mlp_layers=5,
        lr=5e-4, metric="hits@50"),
    "ppa": ModelConfig(
        input_mode="learnable-orthogonal", mpnn_layers=2, hidden_dim=512,
        batch_size=65536, dropout=0.2, mask_input=False,
        normalize_embeddings=False, mlp_layers=5, lr=5e-4, metric="hits@100"),
    "citation2": ModelConfig(
        input_mode="learnable-orthogonal", mpnn_layers=3, hidden_dim=256,
        batch_size=65536, dropout=0.2, mask_input=False,
        normalize_embeddings=True, mlp_layers=5, lr=5e-4, metric="mrr"),
}

def preset(name: str) -> ModelConfig:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


def _coerce(field: dataclasses.Field, raw: str):
    """``raw`` as the field's type; a value that does not parse names the key."""
    kind = getattr(field.type, "__name__", field.type)  # a type, or its name
    if kind == "bool" and raw.lower() in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        return raw.lower() in ("1", "true", "yes", "on")
    try:
        return {"int": int, "float": float, "str": str}[kind](raw)
    except (KeyError, ValueError):
        raise ValueError(f"cannot parse {raw!r} as {kind} for {field.name}") from None


def apply_overrides(cfg: ModelConfig, spec: str) -> ModelConfig:
    """Apply "key=value,key=value" overrides; keys are ModelConfig field names."""
    if not spec:
        return cfg
    fields = {f.name: f for f in dataclasses.fields(ModelConfig)}
    updates = {}
    for item in spec.split(","):
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in fields:
            raise ValueError(f"unknown config key {key!r}; choose from {sorted(fields)}")
        updates[key] = _coerce(fields[key], raw.strip())
    return cfg.replace(**updates)
